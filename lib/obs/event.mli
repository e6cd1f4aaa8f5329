(** The typed event taxonomy of the observability layer.

    One constructor per hypervisor-lifecycle event the paper's evaluation
    counts: VM exits, the view-switch breakpoints and their outcomes, UD2
    traps and the lazy/instant code recoveries they trigger, frame-cache
    sharing and copy-on-write breaks, view load/unload, and guest
    scheduler switches.  Events are plain immutable values; emission cost
    is paid only when a trace sink is armed (see {!Trace.armed}). *)

type switch_outcome =
  | Switched  (** EPT directory entries actually installed *)
  | Skipped  (** same-view optimization: nothing to do *)
  | Deferred  (** armed at [resume_userspace] (§III-B2) *)

type recovery_kind =
  | Lazy  (** recovered at the faulting [eip] (Algorithm 1) *)
  | Instant  (** a misdecodable return target recovered eagerly (Fig. 3) *)

type exit_reason = Exit_breakpoint | Exit_invalid_opcode | Exit_fault

type t =
  | Vm_exit of { reason : exit_reason; addr : int }
      (** a guest exit reached the hypervisor dispatcher; [addr] is the
          breakpoint address, or the faulting [eip] for invalid opcodes
          and faults *)
  | Breakpoint of { vid : int; addr : int; pid : int; comm : string }
      (** FACE-CHANGE observed one of its view-switch breakpoints *)
  | View_switch of {
      vid : int;
      from_index : int;
      to_index : int;
      outcome : switch_outcome;
    }
  | Ud2_trap of { vid : int; eip : int; pid : int; comm : string }
      (** an invalid-opcode exit handled by the code-recovery path *)
  | Recovery of { kind : recovery_kind; start : int; stop : int; symbol : string }
      (** [[start, stop)] of original kernel code filled into the view *)
  | Frame_share of { frame : int }
      (** a view page was backed by an existing frame (cache hit) *)
  | Cow_break of { frame : int; fresh : int }
      (** first write privatized shared [frame] into [fresh] *)
  | View_load of { index : int; app : string; pages : int; loaded_bytes : int }
  | View_unload of { index : int; app : string; cow_breaks : int }
  | Sched_switch of { vid : int; pid : int; comm : string }
      (** the guest scheduler switched to a different task *)
  | Span_begin of {
      sid : int;
      parent : int;
      span : string;
      vid : int;
      pid : int;
      comm : string;
    }
      (** a timed episode opened (see {!Span}): [sid] is unique per sink,
          [parent] is the enclosing open span on the same vCPU (0 for a
          root), [span] is the kind label ("run_slice", "exit_handling",
          "backtrace", "recovery", "view_build") *)
  | Span_end of { sid : int; span : string }
      (** the matching close; always properly nested per vCPU (closing a
          span auto-closes any children still open) *)
  | Fault_injected of { fault : string; detail : string }
      (** the fault-injection harness applied one scheduled fault *)
  | Storm_detected of { vid : int; comm : string; events : int; window : int }
      (** the governor saw [events] degradable events for [comm] within a
          [window]-cycle sliding window *)
  | Degraded of { vid : int; comm : string; from_index : int; reason : string }
      (** the governor fell [comm] back to the full kernel view *)
  | Renarrowed of { vid : int; comm : string; to_index : int }
      (** cooldown elapsed; [comm] was re-bound to its narrow view *)
  | Quarantined of { vid : int; comm : string; degradations : int }
      (** [comm] degraded or faulted too often and is pinned to the full
          view for the rest of the run *)
  | Sample of { vid : int; pid : int; comm : string; pc : int; view : int }
      (** a profiler tick observed [comm] at guest [pc] under view index
          [view] (see {!Sampler}); emitted by the telemetry glue, never
          by the machine itself *)

type value = Int of int | Str of string
(** A flattened field for exporters (JSON objects, CSV cells). *)

val outcome_label : switch_outcome -> string
(** ["switched"], ["skipped"], ["deferred"]. *)

val recovery_label : recovery_kind -> string
(** ["lazy"], ["instant"]. *)

val reason_label : exit_reason -> string
(** ["breakpoint"], ["invalid_opcode"], ["fault"]. *)

val kind : t -> string
(** Stable snake_case tag, e.g. ["view_switch"]. *)

val kinds : string list
(** Every tag {!kind} can return, in declaration order. *)

val fields : t -> (string * value) list
(** The event's payload as ordered (name, value) pairs. *)

val pp : Format.formatter -> t -> unit
(** ["view_switch vid=0 from=0 to=1 outcome=switched"]. *)
