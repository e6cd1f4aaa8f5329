(** Guest processes.

    Each process owns a kernel stack and a user-space workload script,
    and no page table: every kernel address translates by the layout
    ({!Fc_kernel.Layout.gva_to_gpa}), the same in every process, and
    nothing reads user memory.  When a syscall blocks mid-kernel the
    full CPU context — registers and the not-yet-consumed dispatch
    queue — is saved here; the stack itself lives in guest memory and
    survives untouched, which is what makes the paper's cross-view
    recovery scenario (Fig. 3) reproducible. *)

type run_state =
  | Ready
  | Blocked of { yield_id : int; wake_round : int }
  | Exited

type t = {
  pid : int;
  name : string;  (** the guest "comm", what VMI reads to pick a view *)
  mutable cpu : int;
      (** the vCPU this process is pinned to (§V-C: "each process ... is
          pinned to one CPU during execution") *)
  mutable script : Action.t list;
  mutable state : run_state;
  mutable saved_regs : Cpu.regs option;
      (** in-flight kernel context while blocked *)
  mutable saved_dispatch : int Queue.t;
  mutable in_kernel : bool;
  mutable syscall_count : int;
  mutable last_scheduled_round : int;
}

val create : ?cpu:int -> pid:int -> name:string -> Action.t list -> t

val kstack_top : t -> int
val is_ready : t -> bool
val is_exited : t -> bool

val block : t -> yield_id:int -> wake_round:int -> regs:Cpu.regs -> dispatch:int Queue.t -> unit
val wake_if_due : t -> round:int -> unit
val take_saved : t -> (Cpu.regs * int Queue.t) option
(** Consume the saved context for resumption (clears it). *)

val prepend_script : t -> Action.t list -> unit

val pp : Format.formatter -> t -> unit
