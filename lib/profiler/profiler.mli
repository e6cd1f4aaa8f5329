(** The profiling-phase recorder (the paper's QEMU component, §III-A).

    A session observes the guest's execution a straight-line stretch at
    a time ({!Fc_machine.Os.set_coverage}: one superblock's executed
    prefix, or one instruction) and records a kernel address range when
    both of the paper's criteria hold: the stretch is in kernel space,
    and execution is in the target process' context.  Recorded stretches
    that adjoin extend one run, so the ranges are the ones a
    per-instruction recorder would produce, at basic-block cost.
    Interrupt-context execution — not attached to any process — is
    recorded separately and folded into {e every} application's view.
    Module addresses are stored relative to the module base. *)

type session

val start : Fc_machine.Os.t -> target_pid:int -> session
(** Install the recorder (takes over the guest coverage hook; the
    per-instruction trace hook stays free). *)

val stop : session -> unit
(** Remove the recorder.  Recording results remain readable. *)

val app_ranges : session -> Fc_ranges.Range_list.t
(** Ranges executed in the target's process context (interrupt context
    excluded), merged. *)

val interrupt_ranges : session -> Fc_ranges.Range_list.t
(** Ranges executed in interrupt context — under any process. *)

val view_ranges : session -> Fc_ranges.Range_list.t
(** [app ∪ interrupt]: what goes into the kernel view configuration. *)

val to_config : session -> app:string -> View_config.t

val profile_app :
  ?config:Fc_machine.Os.config ->
  Fc_kernel.Image.t ->
  name:string ->
  Fc_machine.Action.t list ->
  View_config.t
(** One-shot off-line profiling session: boot a fresh guest in the
    profiling environment ({!Fc_machine.Os.profiling_config} by default),
    run the given workload as process [name] to completion, and emit its
    kernel view configuration. *)
