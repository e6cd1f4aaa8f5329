(** The hypervisor attachment point.

    [attach] hooks the guest's VM-exit path and gives FACE-CHANGE the same
    narrow capabilities a KVM module has: guest breakpoints, invalid-opcode
    interception, EPT access, guest-physical RAM reads (VMI), and a symbol
    registry assembled from the kernel's System.map plus the module list
    observed through VMI.  Every operation charges the {!Cost} model onto
    the guest cycle counter, which is how Figs. 6 and 7 acquire their
    overhead. *)

type t

val attach : Fc_machine.Os.t -> t
(** Install the VM-exit dispatcher on the guest.  Only one hypervisor may
    be attached per guest at a time. *)

val detach : t -> unit
(** Restore the guest's default (panicking) exit handler and clear all
    breakpoints. *)

val os : t -> Fc_machine.Os.t

val obs : t -> Fc_obs.Obs.t
(** The guest's observability hub ([Os.obs]).  The hypervisor registers
    its exit/cycle counters and a [hyp.charge_cycles] histogram on its
    metrics registry at attach time (resetting them, so a re-attachment
    starts from zero) and emits [vm_exit] trace events when the hub is
    armed. *)

val frame_cache : t -> Fc_mem.Frame_cache.t
(** The content-keyed frame cache view materialization interns shareable
    pages through.  One cache per attached hypervisor: views built for
    the same guest share frames with each other. *)

(* ---------------- exits ---------------- *)

val on_breakpoint : t -> (t -> Fc_machine.Cpu.regs -> int -> unit) -> unit
(** Register a breakpoint listener; all registered listeners run on every
    guest breakpoint hit (FACE-CHANGE's view switcher and, e.g., a syscall
    behavior monitor can coexist).  Execution resumes afterwards. *)

val on_invalid_opcode :
  t -> (t -> Fc_machine.Cpu.regs -> [ `Handled | `Unhandled of string ]) -> unit
(** Called on every invalid-opcode VM exit.  Return [`Handled] after
    repairing the faulting code (execution retries the same [eip]), or
    [`Unhandled reason] to let the guest die. *)

val on_fault :
  t -> (t -> Fc_machine.Cpu.regs -> string -> [ `Handled | `Unhandled of string ]) -> unit
(** Called on every fault exit ({!Fc_machine.Os.Exit_fault}) with the
    fault's description.  [`Handled] retries the same [eip];
    [`Unhandled reason] lets the guest die, which is also what happens
    when no handler is installed. *)

val set_breakpoint : t -> int -> unit
val clear_breakpoint : t -> int -> unit
val has_breakpoint : t -> int -> bool

(* ---------------- accounting ---------------- *)

val charge : t -> int -> unit
(** Add hypervisor work to the guest cycle counter. *)

val breakpoint_exits : t -> int
val invalid_opcode_exits : t -> int
val vm_exits : t -> int
val cycles_charged : t -> int

(* ---------------- VMI ---------------- *)

val current_task : t -> int * string
val module_list : t -> (string * int * int) list

val read_guest_byte : t -> int -> int option
val read_guest_u32 : t -> int -> int option

val read_original_code : t -> int -> int option
(** Read a byte of kernel code from the {e original} guest RAM frames —
    the source of truth that code recovery copies from, unaffected by any
    installed view. *)

val iter_original_code :
  t -> lo:int -> hi:int -> (gva:int -> Bytes.t -> int -> int -> unit) -> unit
(** The bulk form of {!read_original_code}: the original code of
    [[lo, hi)] a page chunk at a time ({!Fc_machine.Os.iter_ram}), for
    view building and recovery.  Unmapped chunks are skipped. *)

val read_active_code : t -> int -> int option
(** Read a byte through the EPT — what the vCPU would fetch right now
    (i.e. the active view's contents). *)

val original_frame : t -> gpa_page:int -> int option

val original_table : t -> dir:int -> Fc_mem.Ept.table option
(** The EPT page table that directory entry [dir] pointed at when the
    hypervisor attached (i.e. the guest's real RAM mapping) — what a full
    kernel view restores and what custom views start from. *)

type walk = {
  frames : int list;  (** [eip] followed by each saved return address *)
  broken : string option;
      (** [None] for a chain that terminated cleanly (zero rbp, user-mode
          sentinel, or non-kernel return address); [Some reason] when the
          walk was cut short by a malformed chain — an rbp outside the
          kernel range, a cycle (the chain must be strictly increasing on
          a downward-growing stack), an unreadable frame, or the depth
          cap *)
}

val stack_walk :
  t -> eip:int -> ebp:int -> ?esp:int -> ?max_depth:int -> unit -> walk
(** Walk the guest rbp chain defensively.  The frames gathered before the
    break are always returned, so a caller can still use the trustworthy
    prefix; [broken] tells it not to trust what lies beyond.  When [esp]
    is given and the original code at [eip] carries the prologue signature
    (the fault hit a function entry, before [push ebp] ran), the immediate
    caller's return address is read from [[esp]] first — otherwise the
    rbp chain would skip it.  Charges {!Cost.backtrace_frame} per frame;
    [max_depth] defaults to 64. *)

val stack_frames :
  t -> eip:int -> ebp:int -> ?esp:int -> ?max_depth:int -> unit -> int list
(** [(stack_walk t ...).frames] — the walk without the verdict. *)

val sample_stack :
  t -> eip:int -> ebp:int -> ?esp:int -> ?max_depth:int -> unit -> walk
(** The same defensive walk as {!stack_walk}, but free: no cycles are
    charged and no backtrace span is emitted.  This is the telemetry
    sampler's walk — charging would advance guest time and shift every
    timer interrupt after the first profiler tick, so an armed profiler
    would silently drift the pinned deterministic counters.  Reads guest
    memory through the data path only (never guest-visible). *)

(* ---------------- symbols ---------------- *)

val refresh_symbols : t -> unit
(** Re-read the VMI module list and, if it changed, rebuild the symbol
    registry: base kernel (System.map) plus per-function symbols for
    VMI-visible modules whose names match known distro modules.  Modules
    hidden from the guest list disappear — their frames render as
    [<UNKNOWN>], as in Fig. 5.  The registry depends on nothing else, so
    an unchanged list keeps the current one. *)

val symbols : t -> Fc_kernel.Symbols.t

val render_addr : t -> int -> string
(** ["0xc021a526 <do_sys_poll+0x136>"]; ["0xf8078bbe <mod:sebek+0xbe>"] for
    an address inside a VMI-visible module without function symbols;
    ["0xf8078bbe <UNKNOWN>"] otherwise. *)

val addr_of_symbol : t -> string -> int option

(** {1 Snapshot: freeze / restore} *)

type frozen = {
  zh_tables : (int * int) list;
      (** the pristine-view EPT leaf tables, dir -> pool table id, sorted *)
  zh_cache : (string * int * int) list;
      (** {!Fc_mem.Frame_cache.export} of the content-keyed frame cache *)
}

val freeze : t -> table_id:(Fc_mem.Ept.table -> int) -> frozen

val restore :
  os:Fc_machine.Os.t -> table_of:(int -> Fc_mem.Ept.table) -> frozen -> t
(** Re-attach a hypervisor to a thawed guest without re-deriving state
    from the live EPT (the way {!attach} does): the pristine table set
    and frame cache come from the snapshot, symbols are refreshed from
    restored guest RAM, the exit handler is installed, and no counters
    are reset — the codec's metrics section is applied afterwards. *)
