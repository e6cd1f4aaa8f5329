(** The UnixBench-like system benchmark suite (Fig. 6).

    Nine subtests mirroring the classic UnixBench mix run as guest
    workloads; each is scored as work per simulated cycle, so FACE-CHANGE
    overhead (VM exits on context switches, EPT updates, recoveries) shows
    up exactly where the paper found it — concentrated in the pipe-based
    context-switching subtest — while the overall index degrades a few
    percent and is insensitive to the number of loaded views. *)

type subtest = {
  st_name : string;
  procs : (string * Fc_machine.Action.t list) list;
      (** benchmark processes: (name, script) *)
}

val subtests : subtest list
val subtest_names : string list

val run_suite :
  Fc_kernel.Image.t -> views:Fc_profiler.View_config.t list -> enabled:bool ->
  (string * float) list
(** Scores per subtest (higher is better).  [enabled] turns FACE-CHANGE on
    with the given views loaded; one mostly-idle resident process per view
    runs alongside (the paper launches the Table I applications), while
    the benchmark processes themselves are unbound (full view). *)

type fig6_point = {
  views_loaded : int;
  overall : float;   (** geometric-mean index, baseline = 1.0 *)
  per_test : (string * float) list;  (** normalized to baseline *)
}

val fig6 : ?view_counts:int list -> Profiles.t -> fig6_point list
(** Baseline plus FACE-CHANGE with 1, 2, … views loaded (default: 1..11,
    excluding gzip as in the paper).  Each point is normalized against a
    run with the same resident-application mix and FACE-CHANGE disabled,
    isolating the hypervisor overhead. *)

val render : fig6_point list -> string

(**/**)

val bench_config : Fc_machine.Os.config
val resident_script : Fc_machine.Action.t list

val run_one :
  ?engine:Fc_machine.Os.engine ->
  ?layers:Fc_obs.Layers.t ->
  Fc_kernel.Image.t ->
  views:Fc_profiler.View_config.t list ->
  residents:string list ->
  enabled:bool ->
  subtest ->
  Fc_machine.Os.t * float
(** One subtest in a fresh guest: the guest and its score.  [layers]
    follows the guest and times its [Os.run] stretches (the residents
    settling, then the subtest). *)

(**/**)
