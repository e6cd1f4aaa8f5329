(** The guest operating system simulation — scheduler, syscalls,
    interrupts, module loading — running over the vCPU, guest page
    tables and the EPT.

    This is the "guest VM" of the paper.  The hypervisor side
    (FACE-CHANGE) observes it only through the narrow interface a real
    hypervisor has: EPT manipulation, breakpoint traps on guest addresses,
    invalid-opcode VM exits, and guest-physical memory reads (VMI). *)

type clocksource = Fc_kernel.Irq_paths.clocksource

type config = {
  clocksource : clocksource;
      (** [Acpi_pm] in the profiling environment (QEMU), [Kvmclock] at
          runtime (KVM) — the source of the paper's benign recovery *)
  timer_period : int;  (** cycles between timer interrupts *)
  quantum : int;       (** actions per scheduling quantum *)
  wake_delay : int;    (** scheduler rounds a blocked process sleeps *)
  background_irqs : (Fc_kernel.Irq_paths.source * int) list;
      (** environment interrupt mix: (source, period in cycles) *)
}

val default_config : config
val profiling_config : config
(** QEMU-like environment: ACPI PM clocksource, a background mix with
    network/keyboard/disk interrupts so the interrupt profile matches a
    live system. *)

val runtime_config : config
(** KVM-like environment: kvmclock clocksource. *)

exception Guest_panic of string
(** Raised when a kernel path faults and no handler recovers — the
    paper's "violation may crash the application or even panic the
    kernel" outcome when recovery is disabled. *)

type t

type engine =
  | Reference
      (** the byte-level path: every guest access walks the full
          translation chain and every instruction is fetched, decoded
          (through the per-frame decode cache) and trap-probed on its
          own — the differential oracle and the perf baseline *)
  | Fast
      (** software TLBs on the guest-memory paths and decode-once
          superblocks on the execute loop, found through the view-tagged
          iTLB on their frame's line (DESIGN.md §9, §10, §14) *)

val engine_name : engine -> string
(** ["reference"] or ["fast"] — the label bench artifacts and
    [facechange restore] print. *)

(* ---------------- construction ---------------- *)

val create :
  ?config:config -> ?vcpus:int -> ?obs:Fc_obs.Obs.t -> ?engine:engine ->
  Fc_kernel.Image.t -> t
(** Boots the guest: lays the base kernel image into guest-physical
    frames, builds one identity EPT {e per vCPU} (default 1, max 8 — the
    paper's §V-C extension), creates one idle process per vCPU
    ("swapper", "swapper/1", …) with per-CPU current-task pointers, and
    loads the default modules — the units
    {!Fc_kernel.Image.boot_modules} assembled once for the image.

    The guest owns an observability hub ([obs], freshly created unless
    given): its trace clock is the guest cycle counter, physical memory
    and scheduler instruments register on its metrics registry, and every
    layer later attached to this guest (hypervisor, FACE-CHANGE) shares
    it.

    [engine] (default [Fast]) picks how the host executes the guest.
    Guest-visible behavior — outcome, stats, instruction and cycle
    counts, traces — is identical on both (test/differential.ml enforces
    it under random fault plans); only the [tlb.*]/[sb.*] metrics and
    wall-clock speed differ. *)

val obs : t -> Fc_obs.Obs.t
(** The guest's observability hub. *)

val vcpu_count : t -> int

val active_vcpu_id : t -> int
(** The vCPU currently executing; inside a VM-exit handler this is the
    vCPU that trapped (the simulation interleaves vCPUs at quantum
    granularity, so it is always well defined). *)

val image : t -> Fc_kernel.Image.t
val config : t -> config
val phys : t -> Fc_mem.Phys_mem.t

val ept : t -> Fc_mem.Ept.t
(** The {e active} vCPU's EPT — inside a VM-exit handler, the trapping
    vCPU's (which is what per-vCPU view switching manipulates). *)

val ept_of : t -> vid:int -> Fc_mem.Ept.t

(* ---------------- processes ---------------- *)

val spawn : ?cpu:int -> t -> name:string -> Action.t list -> Process.t
(** Spawn a process; pinned to [cpu] if given, else assigned round-robin
    across the vCPUs. *)

val processes : t -> Process.t list
val find_process : t -> pid:int -> Process.t option
val current : t -> Process.t

val current_of : t -> vid:int -> Process.t
(** The process currently scheduled on a given vCPU (its idle task when
    nothing is runnable there) — what the telemetry sampler attributes a
    profiler tick to. *)

val in_interrupt : t -> bool

(* ---------------- modules ---------------- *)

type module_info = {
  mod_name : string;
  unit_image : Fc_isa.Asm.unit_image;
  mutable hidden : bool;
}

val load_module : t -> string -> module_info
(** Load a default module by catalog name. *)

val load_module_fns : t -> name:string -> Fc_kernel.Kfunc.t list -> module_info
(** Load arbitrary module code (rootkits). *)

val hide_module : t -> string -> unit
(** Unlink from the guest module list without unmapping the code —
    KBeast-style self-hiding.  VMI traversal no longer sees it. *)

val modules : t -> module_info list
(** OS-side ground truth, including hidden modules. *)

val resolve : t -> string -> int option
(** Resolve a function name to its guest address, searching the base
    kernel then loaded modules (including hidden ones — this is the OS's
    own view, not VMI's). *)

val resolve_exn : t -> string -> int

(* ---------------- hypervisor-facing surface ---------------- *)

type vm_exit =
  | Exit_breakpoint of int
  | Exit_invalid_opcode
  | Exit_fault of string
      (** a CPU fault, such as a fetch from an address that does not
          translate (an EPT violation); the string describes it and is
          the panic message when nothing recovers.  Running out of the
          simulator's instruction budget is not an exit: it raises
          {!Guest_panic} at once. *)

type exit_action =
  | Resume
  | Panic of string

val set_exit_handler : t -> (t -> Cpu.regs -> vm_exit -> exit_action) -> unit
(** FACE-CHANGE's VM-exit dispatch (Algorithm 1).  The default handler
    resumes breakpoints and panics on invalid opcodes and faults.

    [Resume] retries the exiting instruction.  A retry that exits again
    at the same [eip], with no instruction retired, the same active view
    and the same bytes under [eip], proves the handler changed nothing
    the instruction depends on, so it is not retried again: the guest
    kernel takes the exception.  As Linux does on an oops, it kills the
    current task where it stands (counted in [os.oops_kills{comm}]) and
    {!run} carries on; on the idle task it raises {!Guest_panic}
    instead.  Unlike Linux it does not panic in interrupt context: an
    interrupt here runs on the interrupted task's stack and view and
    holds nothing else, so that task is the one killed. *)

val set_trap : t -> int -> unit
val clear_trap : t -> int -> unit
val trap_addresses : t -> int list

type fault_hooks = {
  fh_trap_miss : int -> bool;
      (** consulted when execution reaches a set trap address; returning
          [true] swallows the breakpoint — the guest runs through it as if
          the hypervisor never armed it (a missed [#BP] on
          [__switch_to]) *)
  fh_pre_action : unit -> unit;
      (** fires before each scripted action of the running process; the
          fault injector uses it to apply due faults in the context of the
          process that will be charged for them *)
}
(** Fault-injection hooks (see [lib/faults]).  Zero-cost when disabled:
    the hot paths pay one option match, same contract as the obs armed
    guard. *)

val set_fault_hooks : t -> fault_hooks option -> unit

val arm_tick : t -> period:int -> (unit -> unit) -> unit
(** Arm the telemetry ticker: the callback fires every [period] retired
    guest instructions, checked at vCPU turn boundaries inside {!run}
    (never mid-quantum).  A turn that retires past several marks fires
    once per crossed mark, so over a whole run the callback fires exactly
    [floor (instructions / period)] times regardless of quantum or
    engine — instruction counts at turn boundaries are engine-invariant.
    Marks are aligned to multiples of [period] from instruction 0 even
    when armed mid-run.  Zero-cost when disarmed: the run loop pays one
    option match per vCPU turn, the same contract as {!fault_hooks}.
    The callback must not mutate guest state; it is meant to scrape
    metrics ({!Fc_obs.Timeseries}) and sample VMI state. *)

val disarm_tick : t -> unit

val inject_invalid_opcode : t -> ?ebp:int -> ?esp:int -> eip:int -> unit -> unit
(** Synthesize an invalid-opcode VM exit at [eip] and route it through
    the installed exit handler, exactly as a real UD2 trap: [Resume]
    returns, [Panic] raises {!Guest_panic}.  [ebp] (default 0) lets a
    crafted rbp chain be walked by the recovery path; [esp] defaults to
    just below the current process's kernel stack top. *)

val set_trace : t -> (int -> int -> unit) option -> unit
(** Exact instruction-stream observer: [(address, length)] for every
    retired instruction, in order, on either engine — what the
    differential and snapshot oracles hash and what [Fc_profiler.Behavior]'s
    profiles read.  Arming it switches off the fast engine's
    step-run batching. *)

val set_coverage : t -> (int -> int -> unit) option -> unit
(** Coverage observer — the profiler's recorder.  [f lo hi] is called
    once per executed straight-line stretch [[lo, hi)]: a superblock's
    executed prefix, up to and including the op execution stopped on
    (yield, UD2, sentinel [ret], failed pop), or one classic-path
    instruction (see {!Cpu.run}).  Each stretch is reported while the
    guest context it ran in — {!current} and {!in_interrupt} — is still
    current, and every retired instruction lies in exactly one stretch.
    Where stretches split depends on the engine; coalesced into maximal
    contiguous runs they are the same on both engines and equal the
    {!set_trace} stream coalesced the same way.  Independent of
    {!set_trace}: either, both or neither may be armed. *)

val set_event_trace : t -> (Cpu.event -> unit) option -> unit
(** Exact call/return event observer — the call tracer. *)

val set_branch_policy : t -> (int -> bool) option -> unit
(** Override the conditional-branch oracle (queried with each Jcc's
    address; [true] = take the jump, skipping the cold block).  [None]
    restores the default (all cold blocks skipped) — use a policy to
    drive rarely-taken error paths that profiling missed. *)

val read_guest_byte : t -> int -> int option
(** VMI / data path: read guest-virtual memory through the page tables and
    the hypervisor's ground-truth RAM map.  Kernel views never affect this
    path — they only redirect instruction fetch. *)

val read_guest_u32 : t -> int -> int option

val iter_ram :
  t -> lo:int -> hi:int -> (gva:int -> Bytes.t -> int -> int -> unit) -> unit
(** Host-side bulk read of guest RAM (the {!read_guest_byte} path, a
    page at a time): [f ~gva buf off len] for each page chunk of
    guest-virtual [[lo, hi)] in ascending order, where [buf] is the
    chunk's RAM frame and [off] the chunk's offset in it.  Chunks on
    unmapped pages are skipped.  [buf] is the live frame, valid only
    during the call: read it, never write it.  Each page is translated
    once and the guest's dTLB is neither consulted nor counted. *)

val fetch_code : t -> int -> int option
(** Instruction-fetch path: translates through the {e EPT}, so it sees the
    currently installed kernel view.  What the vCPU decodes from; also what
    a hypervisor uses to inspect the active view's bytes. *)

val ram_frame : t -> gpa_page:int -> int option
(** The hypervisor's ground-truth frame for a guest-physical page — the
    "original kernel code pages" that recovery fetches from, and the frames
    a full kernel view maps back to. *)

val retire_view_translations : t -> view:int -> unit
(** Retire a destroyed view's tag on every vCPU: its cached translations
    can never revalidate (view ids are not reused), and other views'
    entries are untouched.  Counted in [tlb.flushes{explicit}]; guest-RAM growth is [tlb.flushes{growth}]
    — view switches and COW breaks flush nothing. *)

val vmi_current_task : t -> int * string
(** Read the guest's current-task pointer chain: (pid, comm). *)

val vmi_module_list : t -> (string * int * int) list
(** Traverse the guest module linked list: (name, base, size) — omits
    hidden modules, unlike {!modules}. *)

(* ---------------- execution ---------------- *)

val cycles : t -> int
val add_cycles : t -> int -> unit

val instructions : t -> int
(** Guest instructions retired since boot — the numerator of the perf
    benchmark's instructions/sec (also the [os.instructions] gauge).
    Unlike {!cycles}, never advanced by cost-model charges. *)

val decode_cache_frames : t -> int
(** Number of host frames with a live line (also the
    [os.decode_cache_frames] gauge).  A line holds what the engine
    derived from one version of the frame's bytes, in one 4,096-slot
    array: the reference engine's per-offset decodes, or the fast
    engine's superblocks by start offset (plus the page digest that
    keys the image's body memo).  Lines are evicted when their frame's
    last reference is dropped, so view churn must not grow this
    monotonically — the regression test for the old unbounded behavior
    reads it. *)

val round : t -> int
val context_switches : t -> int

val run : ?max_rounds:int -> ?until:(t -> bool) -> t -> unit
(** Drive the scheduler until every non-idle process has exited, [until]
    returns true (checked each round), or [max_rounds] elapses. *)

val run_process_solo : t -> Process.t -> unit
(** Run a single process to completion, round-robining only with
    interrupt delivery — used by the profiler for per-application
    sessions. *)

val inject_irq : t -> Fc_kernel.Irq_paths.source -> unit
(** Deliver one interrupt in the current context, immediately. *)

val schedule_at_round : t -> int -> (t -> unit) -> unit
(** Run a callback when the scheduler reaches the given round — used to
    hot-plug kernel views mid-execution (Fig. 3). *)

val set_syscall_rewriter : t -> (Fc_kernel.Syscalls.t -> (string * string list) option) -> unit
(** Kernel-level attack hook: rewrite a syscall's (entry, dispatch) before
    execution — how rootkit models detour the kernel's control flow. *)

val clear_syscall_rewriter : t -> unit

val pending_itimer : t -> pid:int -> bool
val arm_itimer : t -> pid:int -> unit
(** A [setitimer]-armed process receives [Timer_itimer] expiries (the
    Cymothoa parasite's SIGALRM path) on subsequent timer interrupts. *)

(** {1 Snapshot: freeze / thaw}

    The frozen machine as plain data: scheduler and process state,
    timers, traps, itimers, the guest-RAM map, the physical frame pool,
    and each vCPU's EPT directory shape (tables referenced by pool id —
    the snapshot codec owns the identity-preserving table pool, so
    tables shared between vCPUs, the hypervisor's pristine set and the
    views stay shared after restore).

    Not captured, by design: TLBs and lines with their superblocks (caches —
    rebuilt demand-side, invisible to the differential fingerprints),
    trace/event/fault/tick hooks and the exit handler (re-attached by
    the owning layer after {!thaw}), and counter values (restored by the
    codec's metrics section, last). *)

type frozen_proc = {
  zp_pid : int;
  zp_name : string;
  zp_cpu : int;
  zp_script : Action.t list;
  zp_state : Process.run_state;
  zp_saved_regs : (int * int * int) option;  (** eip, ebp, esp *)
  zp_saved_dispatch : int list;  (** front of the queue first *)
  zp_in_kernel : bool;
  zp_syscall_count : int;
  zp_last_scheduled_round : int;
  zp_mappings : (int * int) list;  (** gva_page -> gpa_page, sorted *)
}

type frozen_module = {
  zm_name : string;
  zm_hidden : bool;
  zm_base : int;
  zm_code : string;
  zm_functions : (string * int * int) list;  (** pname, addr, size *)
}

type frozen_timer = {
  zt_source : Fc_kernel.Irq_paths.source;
  zt_period : int;
  zt_next_at : int;
}

type frozen_vcpu = {
  zv_dirs : (int * int) list;  (** EPT dir -> pool table id, sorted *)
  zv_current_pid : int;
  zv_in_interrupt : bool;
  zv_idle_last_round : int;
  zv_slice_start : int;
      (** start cycle of the still-open run slice — pending
          [os.run_cycles] attribution the restored machine must charge *)
  zv_tags : Fc_mem.Ept.tags;
      (** active view/era, per-view generations and the flush count —
          restored last so tag validity and the [tlb.i_flushes] gauge
          resume exactly where the snapshot left them *)
}

type frozen = {
  z_config : config;
  z_engine : engine;
  z_cycles : int;
  z_instrs : int;
  z_round_no : int;
  z_context_switches : int;
  z_next_pid : int;
  z_next_module_base : int;
  z_data_epoch : int;
  z_trap_gen : int;
  z_ram : (int * int) list;  (** gpa_page -> host frame, sorted *)
  z_phys : Fc_mem.Phys_mem.frozen;
  z_master_pt : (int * int) list;
  z_vcpus : frozen_vcpu list;
  z_procs : frozen_proc list;  (** newest first, matching [procs_rev] *)
  z_modules : frozen_module list;  (** load order *)
  z_timers : frozen_timer list;
  z_traps : int list;  (** sorted *)
  z_itimers : int list;  (** sorted pids *)
  z_sleep_override : int option;
}

val freeze : t -> table_id:(Fc_mem.Ept.table -> int) -> frozen
(** Capture the machine at a scheduler round boundary.  [table_id] maps
    each EPT leaf table to its identity-preserving pool id (assigned by
    the snapshot codec).  Raises [Invalid_argument] if any vCPU has an
    open run slice — snapshots are only meaningful between rounds. *)

val thaw :
  ?obs:Fc_obs.Obs.t ->
  image:Fc_kernel.Image.t ->
  table_of:(int -> Fc_mem.Ept.table) -> frozen -> t
(** Rebuild a machine from a frozen image over a freshly-decoded table
    pool.  The kernel [image] is not serialized — {!Fc_kernel.Image.build}
    is deterministic; guest RAM contents come from the restored frame
    pool, so nothing is re-written (frame versions stay faithful).
    Hooks, views and breakpoints are re-attached by the hypervisor
    layer; apply the codec's metrics section after every layer is
    restored. *)
