(** The guest operating system simulation — scheduler, syscalls,
    interrupts, module loading — running over the vCPU and the EPT.
    There are no guest page tables: the kernel address space is
    direct-mapped ({!Fc_kernel.Layout.gva_to_gpa}), and a kernel address
    is mapped iff guest RAM backs its guest-physical page.

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

    Inside {!reusing}, the guest's frames and lines come from the job's
    store, and the guest is reclaimed when the job ends.

    [engine] (default [Fast]) picks how the host executes the guest.
    Guest-visible behavior — outcome, stats, instruction and cycle
    counts, traces — is identical on both (test/differential.ml enforces
    it under random fault plans); only the [tlb.*]/[sb.*] metrics and
    wall-clock speed differ. *)

(** {1 Stores: one job's guests after another}

    A guest's frames and lines are its biggest allocations: a 4 KiB
    buffer per frame, and a 4,096-slot block array per executed frame
    on the fast engine.  A store keeps them from the guests of one job
    for the guests of the next, so that only a worker's first guest
    allocates them in full ({!Fc_host.Fleet.run} runs every job in its
    worker's store).  Reuse is invisible: a reused frame is zero-filled
    and a reused line cleared, so every counter, byte and outcome is the
    one a guest booted with no store has. *)

type spares
(** A store: spare frame buffers and spare block arrays.  A plain value,
    owned by whoever made it and dropped with its owner; one domain at a
    time may run jobs in it. *)

val spares : unit -> spares
(** An empty store. *)

val reusing : spares -> (unit -> 'a) -> 'a
(** [reusing store f] runs the job [f] against [store]: every machine
    {!create} or {!thaw} boots on this domain while [f] runs takes its
    frames and lines from the store, and is {e reclaimed} into it when
    [f] returns or raises.  A reclaimed machine has no lines, every
    vCPU's TLBs are invalidated and its frames are dead: {!run},
    {!spawn} and {!freeze} raise [Invalid_argument], and any other
    guest-memory access fails as an access to a dead frame does.  So a
    job must return plain data, never a machine or anything that reads
    one later.  Scopes nest: a machine belongs to the innermost one, and
    on exit the enclosing scope is current again. *)

val spare_frames : spares -> int
(** Frame buffers the store holds — never more than the most any one
    job returned to it (a plain accessor, not a registry entry). *)

val spare_lines : spares -> int
(** Block arrays the store holds, bounded the same way. *)

val obs : t -> Fc_obs.Obs.t
(** The guest's observability hub. *)

val vcpu_count : t -> int

val active_vcpu_id : t -> int
(** The vCPU currently executing; inside a VM-exit handler this is the
    vCPU that trapped (the simulation interleaves vCPUs at quantum
    granularity, so it is always well defined). *)

val image : t -> Fc_kernel.Image.t
val phys : t -> Fc_mem.Phys_mem.t

val ept : t -> Fc_mem.Ept.t
(** The {e active} vCPU's EPT — inside a VM-exit handler, the trapping
    vCPU's (which is what per-vCPU view switching manipulates). *)

val ept_of : t -> vid:int -> Fc_mem.Ept.t

(* ---------------- processes ---------------- *)

val spawn : ?cpu:int -> t -> name:string -> Action.t list -> Process.t
(** Spawn a process; pinned to [cpu] if given, else assigned round-robin
    across the vCPUs. *)

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

val load_module_fns : t -> name:string -> Fc_kernel.Kfunc.t list -> module_info
(** Load arbitrary module code (rootkits). *)

val hide_module : t -> string -> unit
(** Unlink from the guest module list without unmapping the code —
    KBeast-style self-hiding.  VMI traversal no longer sees it. *)

val modules : t -> module_info list
(** OS-side ground truth, including hidden modules. *)

val resolve : t -> string -> int option
(** Resolve a function name to its guest address: the loaded modules'
    functions first (including hidden ones — this is the OS's own view,
    not VMI's), the newest module's if several define it, then the base
    kernel's, looked up in the image.  So a module function shadows a
    base-kernel function of the same name. *)

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
(** VMI / data path: read guest-virtual memory through the layout's
    direct map and the hypervisor's ground-truth RAM map — [None] for a
    user or negative address and for a kernel page with no RAM.  Kernel
    views never affect this path — they only redirect instruction
    fetch. *)

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
(** Instruction-fetch path: the layout's direct map, then the {e EPT},
    so it sees the currently installed kernel view.  The same addresses
    are mapped as on {!read_guest_byte}.  What the vCPU decodes from; also what
    a hypervisor uses to inspect the active view's bytes. *)

val ram_frame : t -> gpa_page:int -> int option
(** The hypervisor's ground-truth frame for a guest-physical page — the
    "original kernel code pages" that recovery fetches from, and the frames
    a full kernel view maps back to. *)

val fresh_view_id : t -> int
(** Mint a kernel view id: 1 on a fresh machine, then one more per
    call, never reused on this machine — also across FACE-CHANGE
    instances and snapshots (a thawed machine resumes the count).  The
    active id is the tag the iTLB validates against ({!Fc_mem.Ept.tag}),
    so a retired view's cached translations can never match again and
    retiring a view invalidates nothing. *)

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
    engine's superblocks by start offset (plus the image's memo of the
    bodies of the frame's page content).  Lines are evicted when their frame's
    last reference is dropped, so view churn must not grow this
    monotonically — the regression test for the old unbounded behavior
    reads it. *)

val round : t -> int
val context_switches : t -> int

val run : ?max_rounds:int -> ?until:(t -> bool) -> t -> unit
(** Drive the scheduler until every non-idle process has exited, [until]
    returns true (checked each round), or [max_rounds] elapses.  From
    inside (a VM-exit handler, a round hook) {!freeze} refuses, and so
    it does after a run that raised out of a round. *)

val inject_irq : t -> Fc_kernel.Irq_paths.source -> unit
(** Deliver one interrupt in the current context, immediately. *)

val schedule_at_round : t -> int -> (t -> unit) -> unit
(** Run a callback when the scheduler reaches the given round — used to
    hot-plug kernel views mid-execution (Fig. 3). *)

val set_syscall_rewriter : t -> (Fc_kernel.Syscalls.t -> (string * string list) option) -> unit
(** Kernel-level attack hook: rewrite a syscall's (entry, dispatch) before
    execution — how rootkit models detour the kernel's control flow. *)

val arm_itimer : t -> pid:int -> unit
(** A [setitimer]-armed process receives [Timer_itimer] expiries (the
    Cymothoa parasite's SIGALRM path) on subsequent timer interrupts. *)

(** {1 Snapshot: freeze / thaw}

    The frozen machine as plain data: scheduler and process state,
    timers, traps, itimers, the guest-RAM map (which is also the set of
    mapped kernel pages), the physical frame pool, and each vCPU's EPT
    directory shape (tables referenced by pool id —
    the snapshot codec owns the identity-preserving table pool, so
    tables shared between vCPUs, the hypervisor's pristine set and the
    views stay shared after restore).

    Not captured, by design: TLBs and lines with their superblocks (caches —
    rebuilt demand-side, invisible to the differential fingerprints,
    so the trap generation their blocks are stamped with is not
    captured either),
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
  zv_idle_last_round : int;
  zv_slice_start : int;
      (** start cycle of the still-open run slice — pending
          [os.run_cycles] attribution the restored machine must charge *)
  zv_view : int;  (** the active view id ({!Fc_mem.Ept.tag}) *)
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
  z_next_view : int;  (** the next id {!fresh_view_id} mints *)
  z_ram : (int * int) list;  (** gpa_page -> host frame, sorted *)
  z_phys : Fc_mem.Phys_mem.frozen;
  z_vcpus : frozen_vcpu list;
  z_procs : frozen_proc list;  (** newest first, matching [procs_rev] *)
  z_modules : frozen_module list;  (** load order *)
  z_timers : frozen_timer list;
  z_traps : int list;  (** sorted *)
  z_itimers : int list;  (** sorted pids *)
}

val freeze : t -> table_id:(Fc_mem.Ept.table -> int) -> frozen
(** Capture the machine at a scheduler round boundary.  [table_id] maps
    each EPT leaf table to its identity-preserving pool id (assigned by
    the snapshot codec).  Raises [Invalid_argument] from inside {!run}
    (a VM-exit handler or a round hook: the running kernel invocation's
    registers and dispatch queue are on the host stack, out of reach),
    after a run that raised out of a round, or if any vCPU is inside an
    interrupt — snapshots are only meaningful between runs. *)

val thaw :
  ?obs:Fc_obs.Obs.t ->
  image:Fc_kernel.Image.t ->
  table_of:(int -> Fc_mem.Ept.table) -> frozen -> t
(** Rebuild a machine from a frozen image over a freshly-decoded table
    pool.  The kernel [image] is not serialized — {!Fc_kernel.Image.build}
    is deterministic; guest RAM contents come from the restored frame
    pool, so nothing is re-written (frame versions stay faithful).
    It starts from the constructor {!create} boots through, so both
    register the same instruments in the same order.  Hooks, views and
    breakpoints are re-attached by the hypervisor layer; apply the
    codec's metrics section after every layer is restored. *)
