(** Materialized kernel views (§III-B1).

    A view is a private copy of the guest's kernel code pages — base kernel
    text plus the code pages of every VMI-visible module — where everything
    outside the application's profiled ranges is filled with UD2
    ([0x0f 0x0b]) and, for each profiled basic block, the {e whole
    containing kernel function} is loaded (boundaries found by scanning for
    the prologue signature in the original code, never by consulting a
    function database).

    The view owns EPT page tables for the affected directories; installing
    a view is {!tables}-for-directory pointer assignment, done by
    {!Facechange}.

    Views overlap heavily (Table I), so materialization is content-aware:
    each page's final contents are composed in a buffer (UD2 fill plus
    the covered parts of the load set, located through the
    {!Fc_ranges.Range_list} interval index) and interned through the
    hypervisor's {!Fc_mem.Frame_cache} — byte-identical pages across (or
    within) views share one refcounted physical frame.  The first
    {!write_code} into a shared frame copies it (copy-on-write), so lazy
    and instant code recovery stay strictly per-view.  Sharing is
    behavior-invisible: byte and cycle accounting are identical whether
    it is on or off. *)

type t

val build :
  hyp:Fc_hypervisor.Hypervisor.t ->
  ?whole_function_load:bool ->
  ?share_frames:bool ->
  Fc_profiler.View_config.t ->
  t
(** Materialize a view from a configuration, under a view id minted by
    {!Fc_machine.Os.fresh_view_id}, so no two views of a machine ever
    share an id.  [whole_function_load]
    (default true) is the paper's relaxation; disabling it loads raw
    profiled byte ranges instead (the ablation shows why that is a bad
    idea: more recoveries, and UD2 fill that starts at odd addresses).
    [share_frames] (default true) interns byte-identical pages through
    the hypervisor's frame cache; disabling it allocates every page
    privately, with bit-identical guest-visible behavior. *)

val index : t -> int
(** The view's id: the tag its cached translations carry while it is
    active ({!Fc_mem.Ept.set_view}). *)

val config : t -> Fc_profiler.View_config.t
val app : t -> string

val tables : t -> (int * Fc_mem.Ept.table) list
(** (directory, page table) pairs to install on switch-in. *)

val dirs : t -> int list

val private_page_count : t -> int
(** Pages this view maps over the original kernel (regardless of whether
    their backing frames are shared). *)

val frame_count : t -> int
(** Distinct physical frames backing the view's pages — equal to
    {!private_page_count} without sharing, and (much) smaller with it. *)

val shared_page_count : t -> int
(** Pages currently backed by a frame with more than one reference. *)

val cow_breaks : t -> int
(** Shared frames this view privatized by copy-on-write (first
    {!write_code} into a shared page). *)

val loaded_bytes : t -> int
(** Bytes of real code loaded at build time (after the whole-function
    relaxation). *)

val write_code : t -> gva:int -> int -> unit
(** Patch one byte of the view's copy (code recovery).  Breaks the
    page's frame out of sharing first if needed (copy-on-write). *)

val write_code_range :
  t -> gva:int -> src:Bytes.t -> src_off:int -> len:int -> unit
(** Patch [[gva, gva+len)] of the view's copy from [src] (whole-function
    code recovery): per page, the same copy-on-write step as
    {!write_code}, then one blit. *)

val read_code : t -> gva:int -> int option
(** Read a byte as the vCPU would see it under this view. *)

val covers : t -> gva:int -> bool
(** Is the address inside a page this view privately owns? *)

val destroy : t -> unit
(** Free all private frames (view unload, §III-B4). *)

(** {1 Snapshot: freeze / restore} *)

type frozen = {
  zv_index : int;
  zv_config : string;  (** {!Fc_profiler.View_config.to_string} text *)
  zv_share : bool;
  zv_tables : (int * int) list;  (** dir -> pool table id, list order *)
  zv_page_frames : (int * int) list;  (** gpa_page -> frame, sorted *)
  zv_loaded_bytes : int;
  zv_cow_breaks : int;
  zv_destroyed : bool;
}

val freeze : t -> table_id:(Fc_mem.Ept.table -> int) -> frozen

val restore :
  hyp:Fc_hypervisor.Hypervisor.t ->
  table_of:(int -> Fc_mem.Ept.table) -> frozen -> t
(** Rebuild a view over the restored frame pool.  The view's frame
    references were restored with the pool, so no frames are allocated,
    copied or re-referenced — restore is pure bookkeeping. *)
