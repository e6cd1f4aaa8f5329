(** Cached per-application kernel view profiles.

    Every experiment needs the 12 applications' view configurations; they
    are deterministic, so compute them once per image and reuse. *)

type t

val compute : ?iterations:int -> Fc_kernel.Image.t -> t
(** Run each application's profiling session (default 12 iterations). *)

val image : t -> Fc_kernel.Image.t

val with_image : t -> Fc_kernel.Image.t -> t
(** The same configurations over another build of the image.  Every
    build assembles the same bytes, so the configurations carry over;
    what the new image does not share is the memo of decoded blocks
    ({!Fc_kernel.Image.decoded_blocks}). *)

val apps : t -> string list
val config_of : t -> string -> Fc_profiler.View_config.t
val all_configs : t -> (string * Fc_profiler.View_config.t) list

val union_config : t -> Fc_profiler.View_config.t
(** The union of all application views — the paper's stand-in for
    traditional system-wide kernel minimization.  Its [app] field is
    ["union"]. *)
