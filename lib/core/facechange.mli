(** The FACE-CHANGE runtime (Algorithm 1).

    Enable it on an attached hypervisor to get dynamic per-application
    kernel view switching:

    - a breakpoint on the guest's context-switch function ([__switch_to])
      fires on every switch; VMI reads the incoming process' identity and
      the view selector picks its kernel view;
    - switching to the full kernel view happens immediately; switching to
      a customized view is deferred to the [resume_userspace] breakpoint
      (the paper's missed-interrupt optimization) {e unless} the incoming
      process is resuming mid-kernel, in which case the view applies at
      once — which is precisely the situation that exercises the paper's
      cross-view recovery (Fig. 3);
    - a process whose previous and next views coincide costs nothing (the
      same-view optimization);
    - invalid-opcode VM exits trigger kernel code recovery: backtrace,
      provenance logging, whole-function fetch from the original kernel
      pages, and instant recovery of any caller whose return address
      lands on a misdecoding [0x0b 0x0f] boundary;
    - optionally, a {!Governor} watches the recovery rate per comm and
      degrades a storming app to the full kernel view (with cooldown and
      re-narrowing) instead of letting recovery churn — or the guest
      die — unbounded. *)

type opts = {
  switch_at_resume : bool;
      (** defer custom-view switches to resume-userspace (default true) *)
  same_view_opt : bool;     (** skip EPT updates on same-view switches *)
  whole_function_load : bool;  (** §III-B1 relaxation *)
  instant_recovery : bool;  (** Fig. 3's odd-boundary caller recovery *)
  share_frames : bool;
      (** intern byte-identical view pages in the hypervisor's frame
          cache (default true); behavior-invisible either way *)
}

val default_opts : opts

type t

val enable :
  ?opts:opts -> ?governor:Governor.policy -> Fc_hypervisor.Hypervisor.t -> t
(** Install the traps and the VM-exit handlers.  The full kernel view is
    active and selected for every process until views are loaded.

    Without [governor] the runtime behaves exactly as the paper
    describes: an unhandled invalid-opcode or fault exit panics the
    guest and recovery storms run unchecked.  With a
    {!Governor.policy}, recoveries and broken backtraces are tracked per
    comm; a storming comm is throttled (caller-chain prefetch), then
    degraded to the full kernel view, re-narrowed after a cooldown, and
    quarantined if it keeps misbehaving — and [`Unhandled] exits become
    survivable under the [`Degrade] policy (one that no view can repair
    ends in an oops of the task, see {!Fc_machine.Os.set_exit_handler}). *)

val disable : t -> unit
(** Switch back to the full view, clear all traps, and destroy every
    loaded view without interrupting the guest (§III-B4). *)

val hyp : t -> Fc_hypervisor.Hypervisor.t
val log : t -> Recovery_log.t
val opts : t -> opts

(* ---------------- views ---------------- *)

val full_view_index : int
(** 0 — the guest's unmodified kernel mapping. *)

val load_view : t -> Fc_profiler.View_config.t -> int
(** Materialize a view and bind the selector for the configuration's
    application name to it.  Returns the view index. *)

val unload_view : t -> int -> unit
(** Destroy a view; processes bound to it fall back to the full view.  If
    it is active, the full view is installed first. *)

val bind : t -> comm:string -> index:int -> unit
(** Point a process name at a view (e.g. binding every application to a
    single "union" view to emulate system-wide minimization). *)

val unbind : t -> comm:string -> unit
val selector : t -> comm:string -> int
val views : t -> View.t list
val find_view : t -> int -> View.t option
val active_index : ?vid:int -> t -> int
(** The view active on the given vCPU (default 0). *)

(* ---------------- statistics ---------------- *)

val switches : t -> int
(** EPT view installations actually performed. *)

val switch_skips : t -> int
(** Switches avoided by the same-view optimization. *)

val deferred_switches : t -> int
(** Custom-view switches deferred to resume-userspace. *)

val recoveries : t -> int
(** Invalid-opcode recoveries performed. *)

val recovered_bytes : t -> int

val shared_frames : t -> int
(** Across loaded views: pages minus distinct backing frames — the
    allocations frame sharing avoided. *)

val cow_breaks : t -> int
(** Shared frames privatized by copy-on-write across all loaded views
    (including views since unloaded). *)

(* ---------------- governor ---------------- *)

val governor : t -> Governor.t option

val storms : t -> int
(** Recovery storms detected (sliding-window threshold crossings). *)

val degradations : t -> int
(** Fallbacks to the full kernel view (including quarantines). *)

val renarrows : t -> int
(** Degraded comms re-bound to their narrow view after cooldown. *)

val quarantines : t -> int
(** Comms pinned to the full view for good. *)

val broken_backtraces : t -> int
(** rbp walks cut short by a cyclic, out-of-range, unreadable, or
    over-deep chain. *)

val tolerated_faults : t -> int
(** Unhandled invalid-opcode exits swallowed for already-quarantined
    comms. *)

(** {1 Snapshot: freeze / restore} *)

type frozen = {
  zf_opts : opts;
  zf_views : View.frozen list;  (** load order *)
  zf_bindings : (string * int) list;
  zf_next_index : int;
  zf_active : int list;  (** per vCPU *)
  zf_pending : int option list;  (** per vCPU *)
  zf_retired_cow_breaks : int;
  zf_governor : Governor.frozen option;
  zf_saved_bindings : (string * int) list;  (** sorted *)
  zf_log : string;  (** {!Recovery_log.to_string}, retained window *)
  zf_log_dropped : int;
  zf_log_cap : int;
  zf_enabled : bool;
}

val freeze : t -> table_id:(Fc_mem.Ept.table -> int) -> frozen

val restore :
  hyp:Fc_hypervisor.Hypervisor.t ->
  table_of:(int -> Fc_mem.Ept.table) -> frozen -> t
(** Re-enable FACE-CHANGE from a frozen image on a restored hypervisor:
    views, bindings, per-vCPU active/pending switches, the governor and
    the recovery log come back verbatim; the breakpoint, invalid-opcode
    and fault handlers are installed, but no breakpoints are set —
    the guest's restored trap set already holds them. *)
