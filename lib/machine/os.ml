module Phys = Fc_mem.Phys_mem
module Ept = Fc_mem.Ept
module Tlb = Fc_mem.Tlb
module Layout = Fc_kernel.Layout
module Image = Fc_kernel.Image
module Syscalls = Fc_kernel.Syscalls
module Irq_paths = Fc_kernel.Irq_paths
module Asm = Fc_isa.Asm
module Block = Fc_isa.Block

type clocksource = Irq_paths.clocksource

type config = {
  clocksource : clocksource;
  timer_period : int;
  quantum : int;
  wake_delay : int;
  background_irqs : (Irq_paths.source * int) list;
}

let default_config =
  {
    clocksource = Irq_paths.Acpi_pm;
    timer_period = 60_000;
    quantum = 4;
    wake_delay = 1;
    background_irqs = [];
  }

let profiling_config =
  {
    default_config with
    clocksource = Irq_paths.Acpi_pm;
    background_irqs =
      [
        (Irq_paths.Net_rx_tcp, 55_000);
        (Irq_paths.Net_rx_udp, 130_000);
        (Irq_paths.Keyboard_console, 85_000);
        (Irq_paths.Keyboard_evdev, 105_000);
        (Irq_paths.Disk, 70_000);
      ];
  }

let runtime_config = { profiling_config with clocksource = Irq_paths.Kvmclock }

exception Guest_panic of string

type module_info = {
  mod_name : string;
  unit_image : Asm.unit_image;
  mutable hidden : bool;
}

type vm_exit = Exit_breakpoint of int | Exit_invalid_opcode | Exit_fault of string
type exit_action = Resume | Panic of string

(* An exception the guest kernel takes itself: [run] kills the current
   task, as Linux's die() does on an oops. *)
exception Oops

type irq_timer = {
  source : Irq_paths.source;
  period : int;
  mutable next_at : int;
}

type engine = Reference | Fast

let engine_name = function Reference -> "reference" | Fast -> "fast"

(* A frame's line: what the engine derives from one host frame's bytes,
   for one version of them.  Kept per host frame in [decode_cache] and
   carried as the iTLB entry's payload; cleared when the frame's version
   moves, dropped when the frame is released.  Each engine fills one
   array: the reference engine decodes per byte offset, the fast engine
   keeps superblocks by start offset plus the image's memo of the
   bodies decoded from the frame's page content. *)
type line = {
  mutable line_version : int;
  decoded : Cpu.decode_result option array; (* reference: per byte offset *)
  blocks : Cpu.sblock array; (* fast: per start offset, [no_block] when empty *)
  mutable page : Image.page option; (* fast: resolved at the first build *)
}

(* Spare storage handed from the guests a job boots to the next job's
   (DESIGN.md §11): frame buffers, and the fast engine's 4,096-slot
   block arrays. *)
type spares = { frames : Phys.spare; lines : Cpu.sblock array Stack.t }

(* One virtual CPU: its own EPT (so FACE-CHANGE can switch views
   per-vCPU, the paper's SV-C extension), its own idle task, its own
   notion of the current process and interrupt nesting, and its own
   software TLBs (translations are per-vCPU because views are). *)
type vcpu = {
  vid : int;
  vept : Ept.t;
  vidle : Process.t;
  mutable vcurrent : Process.t;
  mutable vin_interrupt : bool;
  mutable vslice : int; (* open run-slice span id, Span.none when closed *)
  mutable vslice_start : int; (* cycle at which the current slice began *)
  vitlb : line Tlb.t;
      (* fetch-path TLB: stamped with the active view id, validated
         against the frame version, payload = the frame's line *)
  vdtlb : unit Tlb.t;
      (* data-path TLB: guest RAM mappings never change once installed,
         so a slot holding its page is valid *)
}

(* Fault-injection hooks (see lib/faults).  Same zero-cost-when-disabled
   contract as the obs armed guard: the option match is the only cost on
   the hot paths when no injector is armed. *)
type fault_hooks = {
  fh_trap_miss : int -> bool;
      (* consulted when execution reaches a set trap; [true] swallows the
         breakpoint (models a missed #BP on __switch_to) *)
  fh_pre_action : unit -> unit;
      (* fires before each scripted action of the running process; may
         inject synthetic exits via [inject_invalid_opcode] *)
}

(* Telemetry ticker (see lib/obs Timeseries): fires every [th_period]
   retired guest instructions, checked at vCPU turn boundaries in [run].
   Instruction counts at turn boundaries are engine-invariant (the
   differential harness pins them across both engines), so interval
   boundaries are reproducible and gateable.  Same
   zero-cost-when-disarmed contract as [fault_hooks]. *)
type tick_hook = {
  th_period : int;
  mutable th_next : int; (* next instruction mark; always a period multiple *)
  th_fire : unit -> unit;
}

type t = {
  image : Image.t;
  config : config;
  obs : Fc_obs.Obs.t;
  phys : Phys.t;
  vcpus : vcpu array;
  mutable active : int; (* the vCPU currently executing (sequential sim) *)
  ram : (int, int) Hashtbl.t;
      (* gpa_page -> hpa frame: the hypervisor's ground-truth map of guest
         RAM, and the set of mapped kernel pages ([ram_page]).  The EPT
         starts out agreeing with it; kernel views later redirect
         code-fetch translations while guest data accesses (and guest
         writes, e.g. module loading) always reach real RAM. *)
  traps : (int, unit) Hashtbl.t;
  mutable trap_arr : int array; (* sorted mirror of [traps] for the hot path *)
  mutable trap_lo : int; (* min trap address, [max_int] when none *)
  mutable trap_hi : int; (* max trap address, [min_int] when none *)
  mutable trace : (int -> int -> unit) option;
  mutable cover : (int -> int -> unit) option;
  mutable events : (Cpu.event -> unit) option;
  mutable branch_policy : (int -> bool) option;
  cycles : int ref;
  instrs : int ref; (* retired guest instructions *)
  fast : bool;
      (* [Fast] engine: software TLBs on the guest-memory paths and
         superblocks on the execute loop; [Reference] takes the byte-level
         walk everywhere *)
  mutable trap_gen : int;
      (* bumped whenever the trap set changes: superblocks embed the
         generation at build time, so a new trap address landing inside a
         cached block invalidates it without scanning the cache *)
  mutable next_view : int;
      (* the next kernel view id [fresh_view_id] mints: ids are never
         reused on a machine, so a retired view's cached translations
         can never match again *)
  mutable in_run : bool;
      (* set for [run]'s round loop, and left set if a round raises: a
         kernel invocation may be in flight, its registers and dispatch
         queue on the host stack where [freeze], which refuses, cannot
         see them *)
  mutable round_no : int;
  mutable context_switches : int;
  mutable procs_rev : Process.t list; (* excludes idles; reverse pid order *)
  mutable next_pid : int;
  mutable handler : handler;
  mutable modules : module_info list; (* load order *)
  mutable next_module_base : int;
  mutable timers : irq_timer list;
  decode_cache : (int, line) Hashtbl.t; (* host frame -> line *)
  mutable at_round : (int * (t -> unit)) list;
  mutable rewriter : (Syscalls.t -> (string * string list) option) option;
  itimers : (int, unit) Hashtbl.t;
  symbols : (string, int) Hashtbl.t;
      (* module functions, incl. hidden modules; the base kernel's are
         the image's ([resolve]) *)
  mutable faults : fault_hooks option;
  mutable tick : tick_hook option;
  run_cycles_f : Fc_obs.Metrics.family; (* os.run_cycles{comm} *)
  run_slices_f : Fc_obs.Metrics.family; (* os.run_slices{comm} *)
  oops_kills_f : Fc_obs.Metrics.family; (* os.oops_kills{comm} *)
  tlb_i_hits : Fc_obs.Metrics.counter;
  tlb_i_misses : Fc_obs.Metrics.counter;
  tlb_d_hits : Fc_obs.Metrics.counter;
  tlb_d_misses : Fc_obs.Metrics.counter;
  sb_built : Fc_obs.Metrics.counter;
  sb_hits : Fc_obs.Metrics.counter;
  sb_invals : Fc_obs.Metrics.counter;
  mutable store : spares option;
      (* where new fast lines take their block arrays from and where
         [reclaim] returns them; [None] outside a store and once
         reclaimed *)
  mutable reclaimed : bool;
}

and handler = t -> Cpu.regs -> vm_exit -> exit_action

let image t = t.image
let obs t = t.obs
let phys t = t.phys
let active_vcpu t = t.vcpus.(t.active)
let active_vcpu_id t = t.active
let vcpu_count t = Array.length t.vcpus
let ept t = (active_vcpu t).vept

let ept_of t ~vid =
  if vid < 0 || vid >= Array.length t.vcpus then invalid_arg "Os.ept_of: bad vcpu";
  t.vcpus.(vid).vept

let find_process t ~pid = List.find_opt (fun (p : Process.t) -> p.pid = pid) t.procs_rev
let current t = (active_vcpu t).vcurrent
let in_interrupt t = (active_vcpu t).vin_interrupt
let cycles t = !(t.cycles)
let add_cycles t n = t.cycles := !(t.cycles) + n
let instructions t = !(t.instrs)
let decode_cache_frames t = Hashtbl.length t.decode_cache
let round t = t.round_no
let context_switches t = t.context_switches
let set_exit_handler t h = t.handler <- h

(* The trap set is consulted before every emulated instruction, so it is
   mirrored into a sorted array with min/max guards: with no traps set
   the check is a single integer compare, with the usual handful it is a
   short monotone probe. *)
let rebuild_traps t =
  t.trap_gen <- t.trap_gen + 1;
  let arr =
    Hashtbl.fold (fun a () acc -> a :: acc) t.traps []
    |> List.sort Int.compare |> Array.of_list
  in
  t.trap_arr <- arr;
  if Array.length arr = 0 then begin
    t.trap_lo <- max_int;
    t.trap_hi <- min_int
  end
  else begin
    t.trap_lo <- arr.(0);
    t.trap_hi <- arr.(Array.length arr - 1)
  end

let set_trap t a =
  Hashtbl.replace t.traps a ();
  rebuild_traps t

let clear_trap t a =
  Hashtbl.remove t.traps a;
  rebuild_traps t

let trap_addresses t = Hashtbl.fold (fun a () acc -> a :: acc) t.traps []

let is_trap_addr t a =
  a >= t.trap_lo && a <= t.trap_hi
  &&
  let arr = t.trap_arr in
  let n = Array.length arr in
  let rec probe i =
    i < n
    &&
    let x = Array.unsafe_get arr i in
    x = a || (x < a && probe (i + 1))
  in
  probe 0
let set_trace t f = t.trace <- f
let set_coverage t f = t.cover <- f
let set_event_trace t f = t.events <- f
let set_branch_policy t f = t.branch_policy <- f
let set_syscall_rewriter t f = t.rewriter <- Some f
let arm_itimer t ~pid = Hashtbl.replace t.itimers pid ()
let set_fault_hooks t h = t.faults <- h

let current_of t ~vid =
  if vid < 0 || vid >= Array.length t.vcpus then
    invalid_arg "Os.current_of: bad vcpu";
  t.vcpus.(vid).vcurrent

let arm_tick t ~period fire =
  if period < 1 then invalid_arg "Os.arm_tick: period must be >= 1";
  (* marks stay period-aligned from instruction 0 regardless of when the
     ticker is armed, so interval boundaries depend only on the period *)
  let next = ((!(t.instrs) / period) + 1) * period in
  t.tick <- Some { th_period = period; th_next = next; th_fire = fire }

let disarm_tick t = t.tick <- None

(* ---------------- guest memory plumbing ---------------- *)

let page_mask = Layout.page_size - 1

let kernel_page = Layout.page_of Layout.kernel_base

(* The RAM frame of the guest-virtual page [page], if it is mapped: the
   one translation, on every path.  The kernel address space is
   direct-mapped ([Layout.gva_to_gpa]), so the guest-physical page is
   [page - kernel_page], and a kernel page is mapped iff guest RAM backs
   that page ([map_fresh_range] is the one writer of [ram], and never
   unmaps).  User pages are never mapped. *)
let ram_page t page =
  if page < kernel_page then None else Hashtbl.find_opt t.ram (page - kernel_page)

(* Data path: guest-virtual -> real RAM address.  Used for stacks, VMI
   and guest writes; kernel views never affect it. *)
let ram_translate t gva =
  match ram_page t (gva / Layout.page_size) with
  | None -> None
  | Some frame -> Some ((frame * Layout.page_size) + (gva land page_mask))

let ram_frame t ~gpa_page = Hashtbl.find_opt t.ram gpa_page

(* The empty block slot of a line: no pc is -1. *)
let no_block = { Cpu.sb_start = -1; sb_body = Block.empty; sb_trap_gen = -1 }

(* A new fast line's block array, every slot [no_block]: a spare one,
   cleared, while the machine's store has any. *)
let line_blocks t =
  match t.store with
  | Some { lines; _ } when not (Stack.is_empty lines) ->
      let a = Stack.pop lines in
      Array.fill a 0 (Array.length a) no_block;
      a
  | _ -> Array.make Layout.page_size no_block

(* The line of [frame] at [version].  Keyed by host frame, lines are
   naturally coherent across kernel view switches (different views fetch
   from different frames); writes invalidate through the frame version.
   A line reached again after its frame's version moved is cleared, and
   the blocks it held count as invalidations: each is a block the new
   bytes force to be rebuilt if it runs again.  The iTLB carries a
   pointer to the current page's line, so a fetch hit never touches this
   table. *)
let line_for t frame ~version =
  match Hashtbl.find_opt t.decode_cache frame with
  | Some ln when ln.line_version = version -> ln
  | Some ln ->
      Array.fill ln.decoded 0 (Array.length ln.decoded) None;
      let held = ref 0 in
      Array.iteri
        (fun o b ->
          if b != no_block then begin
            incr held;
            ln.blocks.(o) <- no_block
          end)
        ln.blocks;
      if !held > 0 then Fc_obs.Metrics.add t.sb_invals !held;
      ln.page <- None;
      ln.line_version <- version;
      ln
  | None ->
      let n = Layout.page_size in
      let decoded, blocks =
        if t.fast then ([||], line_blocks t) else (Array.make n None, [||])
      in
      let ln = { line_version = version; decoded; blocks; page = None } in
      Hashtbl.replace t.decode_cache frame ln;
      ln

(* dTLB lookup for the page holding [gva-page].  A valid entry needs only
   the tag: guest RAM translations are add-only ([map_fresh_range]
   refuses a mapped page), so nothing can invalidate them.  Returns the
   TLB's null entry ([tag] < 0) when the page is unmapped — unmapped
   pages are never cached, so a later mapping is seen at once. *)
let dtlb_entry t page =
  let v = active_vcpu t in
  let e = Tlb.slot v.vdtlb page in
  if e.Tlb.tag = page then begin
    Fc_obs.Metrics.incr t.tlb_d_hits;
    e
  end
  else begin
    Fc_obs.Metrics.incr t.tlb_d_misses;
    match ram_page t page with
    | None -> Tlb.null v.vdtlb
    | Some frame ->
        Tlb.fill e ~tag:page ~stamp:0 ~frame
          ~version:(Phys.version t.phys frame)
          ~bytes:(Phys.frame_bytes t.phys frame) ~payload:();
        e
  end

(* iTLB lookup: additionally validated against the active view id (a
   view switch merely changes it — entries cached under the re-entered
   view match again — and a retired view's id is never active again)
   and the backing frame's version (so a COW break or a lazy recovery
   write to the very frame we cached is caught with no eager flush; the
   version bump also proves [bytes] still belongs to this frame). *)
let itlb_entry t page =
  let v = active_vcpu t in
  let e = Tlb.slot v.vitlb page in
  if
    e.Tlb.tag = page
    && e.Tlb.stamp = Ept.tag v.vept
    && e.Tlb.version = Phys.version t.phys e.Tlb.frame
  then begin
    Fc_obs.Metrics.incr t.tlb_i_hits;
    e
  end
  else begin
    Fc_obs.Metrics.incr t.tlb_i_misses;
    match ram_page t page with
    | None -> Tlb.null v.vitlb
    | Some _ -> (
        match Ept.translate_page v.vept (page - kernel_page) with
        | None -> Tlb.null v.vitlb
        | Some frame ->
            let version = Phys.version t.phys frame in
            Tlb.fill e ~tag:page ~stamp:(Ept.tag v.vept) ~frame ~version
              ~bytes:(Phys.frame_bytes t.phys frame)
              ~payload:(line_for t frame ~version);
            e)
  end

let fresh_view_id t =
  let id = t.next_view in
  t.next_view <- id + 1;
  id

let read_guest_byte_slow t gva =
  match ram_translate t gva with
  | None -> None
  | Some hpa -> Some (Phys.read_byte t.phys hpa)

let read_guest_byte t gva =
  if not t.fast then read_guest_byte_slow t gva
  else
    let e = dtlb_entry t (gva / Layout.page_size) in
    if e.Tlb.tag >= 0 then Some (Bytes.get_uint8 e.Tlb.bytes (gva land page_mask))
    else None

(* Fetch path: goes through the EPT, so an installed kernel view redirects
   it to the view's frames. *)
let fetch_code_slow t gva =
  match ram_page t (gva / Layout.page_size) with
  | None -> None
  | Some _ -> (
      match Ept.translate (active_vcpu t).vept (Layout.gva_to_gpa gva) with
      | None -> None
      | Some hpa -> Some (Phys.read_byte t.phys hpa))

let fetch_code t gva =
  if not t.fast then fetch_code_slow t gva
  else
    let e = itlb_entry t (gva / Layout.page_size) in
    if e.Tlb.tag >= 0 then Some (Bytes.get_uint8 e.Tlb.bytes (gva land page_mask))
    else None

let read_guest_u32_slow t gva =
  let b i =
    match read_guest_byte t (gva + i) with Some v -> v | None -> raise Exit
  in
  match b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) with
  | v -> Some v
  | exception Exit -> None

let read_guest_u32 t gva =
  if not t.fast then read_guest_u32_slow t gva
  else
    let off = gva land page_mask in
    if off > Layout.page_size - 4 then
      (* page-straddling access: compose byte-wise (each byte TLB'd) *)
      read_guest_u32_slow t gva
    else
      let e = dtlb_entry t (gva / Layout.page_size) in
      if e.Tlb.tag >= 0 then
        let b = e.Tlb.bytes in
        Some (Bytes.get_uint16_le b off lor (Bytes.get_uint16_le b (off + 2) lsl 16))
      else None

let write_guest_byte_slow t gva v =
  match ram_translate t gva with
  | None -> invalid_arg (Printf.sprintf "Os.write_guest_byte: unmapped 0x%x" gva)
  | Some hpa -> Phys.write_byte t.phys hpa v

let write_guest_byte t gva v =
  if not t.fast then write_guest_byte_slow t gva v
  else
    let e = dtlb_entry t (gva / Layout.page_size) in
    if e.Tlb.tag >= 0 then begin
      Bytes.set_uint8 e.Tlb.bytes (gva land page_mask) (v land 0xff);
      Phys.touch t.phys e.Tlb.frame
    end
    else invalid_arg (Printf.sprintf "Os.write_guest_byte: unmapped 0x%x" gva)

let write_guest_u32_slow t gva v =
  for i = 0 to 3 do
    write_guest_byte t (gva + i) ((v lsr (8 * i)) land 0xff)
  done

let write_guest_u32 t gva v =
  if not t.fast then write_guest_u32_slow t gva v
  else
    let off = gva land page_mask in
    if off > Layout.page_size - 4 then write_guest_u32_slow t gva v
    else
      let e = dtlb_entry t (gva / Layout.page_size) in
      if e.Tlb.tag >= 0 then begin
        let b = e.Tlb.bytes in
        Bytes.set_uint16_le b off (v land 0xffff);
        Bytes.set_uint16_le b (off + 2) ((v lsr 16) land 0xffff);
        Phys.touch t.phys e.Tlb.frame
      end
      else invalid_arg (Printf.sprintf "Os.write_guest_byte: unmapped 0x%x" gva)

(* Map [lo, hi) of guest-virtual space to freshly allocated frames: in
   the RAM map, which maps the kernel pages, and in the EPT.  The RAM
   map is add-only, so a page already in it is refused: that is what
   keeps a dTLB entry valid for as long as its slot holds its page. *)
let map_fresh_range t ~lo ~hi =
  let lo_page = Layout.page_of lo and hi_page = Layout.page_of (hi - 1) + 1 in
  let e0 = t.vcpus.(0).vept in
  for gva_page = lo_page to hi_page - 1 do
    let gpa_page = Layout.page_of (Layout.gva_to_gpa (gva_page * Layout.page_size)) in
    if Hashtbl.mem t.ram gpa_page then
      invalid_arg
        (Printf.sprintf "Os.map_fresh_range: 0x%x is already mapped"
           (gva_page * Layout.page_size));
    let frame = Phys.alloc t.phys in
    Hashtbl.replace t.ram gpa_page frame;
    (* map in vCPU 0, then alias its leaf table into any vCPU that does
       not have that directory yet: RAM mappings stay shared while each
       vCPU keeps its own directory (views replace directory entries
       per-vCPU).  The installs are quiet: a fresh page was never cached
       (no negative caching), so nothing cached can be stale. *)
    Ept.install_page e0 ~gpa_page ~hpa_frame:frame;
    let dir = Ept.dir_of_page gpa_page in
    let table = Option.get (Ept.get_dir e0 ~dir) in
    Array.iter
      (fun v ->
        if v.vid > 0 && Ept.get_dir v.vept ~dir = None then
          Ept.install_dir v.vept ~dir (Some table))
      t.vcpus
  done

(* Host-side bulk access to guest RAM (kernel text and module code in,
   original code out for view building and recovery): [f gva hpa n] for
   each page chunk [gva, gva+n) of [lo, hi), with [hpa] its RAM address
   ([None] if unmapped).  Each page is translated once through
   [ram_translate] and moved with one blit by the caller, so the guest's
   dTLB is neither consulted nor counted.  (Host-side readers that go
   byte by byte through [read_guest_byte] are counted in [tlb.d_*].) *)
let ram_chunks t ~lo ~hi f =
  let rec go gva =
    if gva < hi then begin
      let n = min (hi - gva) (Layout.page_size - (gva land page_mask)) in
      f gva (ram_translate t gva) n;
      go (gva + n)
    end
  in
  go lo

let copy_code_in t ~base (code : Bytes.t) =
  ram_chunks t ~lo:base ~hi:(base + Bytes.length code) (fun gva hpa n ->
      match hpa with
      | None -> invalid_arg (Printf.sprintf "Os.write_guest_byte: unmapped 0x%x" gva)
      | Some hpa ->
          Phys.blit_bytes t.phys ~src:code ~src_off:(gva - base) ~dst:hpa ~len:n)

let iter_ram t ~lo ~hi f =
  ram_chunks t ~lo ~hi (fun gva hpa n ->
      match hpa with
      | None -> ()
      | Some hpa ->
          f ~gva
            (Phys.frame_bytes t.phys (Phys.frame_of_addr hpa))
            (Phys.offset_of_addr hpa) n)

(* ---------------- VMI surface ---------------- *)

let vmi_current_task t =
  match read_guest_u32 t (Layout.current_task_ptr_cpu ~vid:t.active) with
  | None -> (-1, "?")
  | Some task -> (
      match read_guest_u32 t task with
      | None -> (-1, "?")
      | Some pid ->
          let buf = Buffer.create 16 in
          (try
             for i = 0 to 15 do
               match read_guest_byte t (task + 4 + i) with
               | Some 0 | None -> raise Exit
               | Some c -> Buffer.add_char buf (Char.chr c)
             done
           with Exit -> ());
          (pid, Buffer.contents buf))

let vmi_module_list t =
  let rec go acc node =
    if node = 0 then List.rev acc
    else
      match (read_guest_u32 t node, read_guest_u32 t (node + 4), read_guest_u32 t (node + 8)) with
      | Some next, Some base, Some size ->
          let buf = Buffer.create 16 in
          (try
             for i = 0 to 15 do
               match read_guest_byte t (node + 12 + i) with
               | Some 0 | None -> raise Exit
               | Some c -> Buffer.add_char buf (Char.chr c)
             done
           with Exit -> ());
          go ((Buffer.contents buf, base, size) :: acc) next
      | _ -> List.rev acc
  in
  match read_guest_u32 t Layout.module_list_head with
  | None -> []
  | Some head -> go [] head

(* ---------------- modules ---------------- *)

let register_module_symbols t (u : Asm.unit_image) =
  List.iter (fun (p : Asm.placed) -> Hashtbl.replace t.symbols p.pname p.addr) u.functions

let rewrite_guest_module_list t =
  (* Rebuild the linked list from non-hidden modules, in load order. *)
  let visible = List.filter (fun m -> not m.hidden) t.modules in
  let node_of = Hashtbl.create 8 in
  let node_addr = ref (Layout.data_base + 0x8000) in
  List.iter
    (fun m ->
      Hashtbl.replace node_of m.mod_name !node_addr;
      node_addr := !node_addr + 32)
    visible;
  let rec write_nodes = function
    | [] -> ()
    | m :: rest ->
        let node = Hashtbl.find node_of m.mod_name in
        let next = match rest with [] -> 0 | n :: _ -> Hashtbl.find node_of n.mod_name in
        write_guest_u32 t node next;
        write_guest_u32 t (node + 4) m.unit_image.Asm.base;
        write_guest_u32 t (node + 8) (Bytes.length m.unit_image.Asm.code);
        for i = 0 to 15 do
          let c = if i < String.length m.mod_name then Char.code m.mod_name.[i] else 0 in
          write_guest_byte t (node + 12 + i) c
        done;
        write_nodes rest
  in
  write_nodes visible;
  write_guest_u32 t Layout.module_list_head
    (match visible with [] -> 0 | m :: _ -> Hashtbl.find node_of m.mod_name)

(* Copy an assembled module into the module area at its base (which must
   be [t.next_module_base]) and publish it: symbols and the guest's
   module list. *)
let install_module t ~name (u : Asm.unit_image) =
  if u.Asm.base + Bytes.length u.Asm.code > Layout.module_area_limit then
    raise (Guest_panic "module area exhausted");
  copy_code_in t ~base:u.Asm.base u.Asm.code;
  t.next_module_base <- Image.next_module_base u;
  let info = { mod_name = name; unit_image = u; hidden = false } in
  t.modules <- t.modules @ [ info ];
  register_module_symbols t u;
  rewrite_guest_module_list t;
  info

let load_module_fns t ~name fns =
  match Image.assemble_module_fns t.image ~base:t.next_module_base fns with
  | Error e -> raise (Guest_panic (Printf.sprintf "module %s: %s" name e))
  | Ok u -> install_module t ~name u

let hide_module t name =
  match List.find_opt (fun m -> String.equal m.mod_name name) t.modules with
  | None -> raise (Guest_panic ("hide_module: not loaded: " ^ name))
  | Some m ->
      m.hidden <- true;
      rewrite_guest_module_list t

let modules t = t.modules
(* A module function shadows a base-kernel function of the same name,
   and a later module an earlier one ([Hashtbl.replace] in load order). *)
let resolve t name =
  match Hashtbl.find_opt t.symbols name with
  | Some _ as a -> a
  | None -> Image.addr_of t.image name

let resolve_exn t name =
  match resolve t name with
  | Some a -> a
  | None -> raise (Guest_panic ("unresolved kernel symbol: " ^ name))

(* ---------------- construction ---------------- *)

let default_handler _t _regs = function
  | Exit_breakpoint _ -> Resume
  | Exit_invalid_opcode -> Panic "invalid opcode in guest kernel (no hypervisor handler)"
  | Exit_fault m -> Panic m

let write_task_struct t (p : Process.t) =
  let task = Layout.task_struct_addr ~pid:p.pid in
  write_guest_u32 t task p.pid;
  for i = 0 to 15 do
    let c = if i < String.length p.name then Char.code p.name.[i] else 0 in
    write_guest_byte t (task + 4 + i) c
  done

let dummy_line = { line_version = min_int; decoded = [||]; blocks = [||]; page = None }

(* Per-vCPU iTLB and dTLB; the reference engine never consults them, so
   it gets single-entry placeholders. *)
let vcpu_caches ~fast =
  let bits = if fast then 8 else 0 in
  (Tlb.create ~bits ~payload:dummy_line (), Tlb.create ~bits ~payload:() ())

(* Hooks and read-through gauges every machine carries, whether booted
   or thawed: lines (and with them the blocks built from the frame) are
   keyed by host frame, so they die with their frame rather than
   leaking one per freed view frame until the number is recycled;
   the guest cycle counter is the trace timestamp source; scheduler and
   cache state are exported as gauges. *)
let wire_instruments t =
  Phys.set_release_hook t.phys
    (Some (fun frame -> Hashtbl.remove t.decode_cache frame));
  Fc_obs.Obs.set_clock t.obs (fun () -> !(t.cycles));
  let metrics = Fc_obs.Obs.metrics t.obs in
  let gauge name f = Fc_obs.Metrics.gauge metrics ~subsystem:"os" name f in
  gauge "cycles" (fun () -> !(t.cycles));
  gauge "instructions" (fun () -> !(t.instrs));
  gauge "rounds" (fun () -> t.round_no);
  gauge "context_switches" (fun () -> t.context_switches);
  gauge "vcpus" (fun () -> Array.length t.vcpus);
  gauge "processes" (fun () -> List.length t.procs_rev);
  gauge "decode_cache_frames" (fun () -> Hashtbl.length t.decode_cache)

(* The job running on this domain ([reusing]): the store its machines
   draw from, and every machine booted since it began. *)
type scope = { s_store : spares; mutable s_booted : t list }

let scope : scope option Domain_local.key = Domain_local.new_key (fun () -> None)

(* The one constructor behind [create] and [thaw]: a machine with no
   guest state yet, every instrument registered and every hook wired,
   drawing on the running job's store if there is one.  The snapshot's
   METR section lists stored instruments in registration order, so the
   counters are registered here by explicit lets, in that order. *)
let make ~config ~obs ~engine ~vcpus image =
  let job = Domain_local.get scope in
  let store = Option.map (fun j -> j.s_store) job in
  let metrics = Fc_obs.Obs.metrics obs in
  let counter subsystem name = Fc_obs.Metrics.counter metrics ~subsystem name in
  let family subsystem name = Fc_obs.Metrics.counter_family metrics ~subsystem name in
  let sb_invals = counter "sb" "invalidations" in
  let sb_hits = counter "sb" "hits" in
  let sb_built = counter "sb" "blocks_built" in
  let tlb_d_misses = counter "tlb" "d_misses" in
  let tlb_d_hits = counter "tlb" "d_hits" in
  let tlb_i_misses = counter "tlb" "i_misses" in
  let tlb_i_hits = counter "tlb" "i_hits" in
  let phys = Phys.create ~metrics ?spare:(Option.map (fun s -> s.frames) store) () in
  let fast = match engine with Fast -> true | Reference -> false in
  let mk_vcpu vid =
    let name = if vid = 0 then "swapper" else Printf.sprintf "swapper/%d" vid in
    let vidle = Process.create ~cpu:vid ~pid:vid ~name [] in
    let vitlb, vdtlb = vcpu_caches ~fast in
    {
      vid;
      vept = Ept.create ();
      vidle;
      vcurrent = vidle;
      vin_interrupt = false;
      vslice = Fc_obs.Span.none;
      vslice_start = 0;
      vitlb;
      vdtlb;
    }
  in
  let t =
    {
      image;
      config;
      obs;
      phys;
      vcpus = Array.init vcpus mk_vcpu;
      active = 0;
      ram = Hashtbl.create 2048;
      traps = Hashtbl.create 8;
      trap_arr = [||];
      trap_lo = max_int;
      trap_hi = min_int;
      trace = None;
      cover = None;
      events = None;
      branch_policy = None;
      cycles = ref 0;
      instrs = ref 0;
      fast;
      trap_gen = 0;
      next_view = 1;
      in_run = false;
      round_no = 0;
      context_switches = 0;
      procs_rev = [];
      next_pid = vcpus;
      handler = default_handler;
      modules = [];
      next_module_base = Layout.module_area_base;
      timers =
        { source = Irq_paths.Timer config.clocksource; period = config.timer_period; next_at = config.timer_period }
        :: List.map
             (fun (source, period) -> { source; period; next_at = period })
             config.background_irqs;
      decode_cache = Hashtbl.create 512;
      at_round = [];
      rewriter = None;
      itimers = Hashtbl.create 8;
      symbols = Hashtbl.create 256;
      faults = None;
      tick = None;
      run_cycles_f = family "os" "run_cycles";
      run_slices_f = family "os" "run_slices";
      oops_kills_f = family "os" "oops_kills";
      tlb_i_hits;
      tlb_i_misses;
      tlb_d_hits;
      tlb_d_misses;
      sb_built;
      sb_hits;
      sb_invals;
      store;
      reclaimed = false;
    }
  in
  wire_instruments t;
  Option.iter (fun j -> j.s_booted <- t :: j.s_booted) job;
  t

(* ---------------- stores ---------------- *)

let spares () = { frames = Phys.spare (); lines = Stack.create () }
let spare_frames s = Phys.spare_frames s.frames
let spare_lines s = Stack.length s.lines

(* A reclaimed machine's storage is another guest's: nothing cached from
   it may be reached again, so its lines go, every TLB entry dies and
   every frame is dead. *)
let reclaim t =
  t.reclaimed <- true;
  (match t.store with
  | Some s when t.fast ->
      Hashtbl.iter (fun _ ln -> Stack.push ln.blocks s.lines) t.decode_cache
  | _ -> ());
  t.store <- None;
  Hashtbl.reset t.decode_cache;
  Array.iter
    (fun v ->
      Tlb.invalidate_all v.vitlb;
      Tlb.invalidate_all v.vdtlb)
    t.vcpus;
  Phys.reclaim t.phys

let reusing store f =
  let outer = Domain_local.get scope in
  let job = { s_store = store; s_booted = [] } in
  Domain_local.set scope (Some job);
  Fun.protect f ~finally:(fun () ->
      Domain_local.set scope outer;
      List.iter reclaim job.s_booted)

let check_live t what =
  if t.reclaimed then invalid_arg (what ^ ": the machine's job has ended")

let create ?(config = default_config) ?(vcpus = 1) ?obs ?(engine = Fast) image =
  if vcpus < 1 || vcpus > 8 then invalid_arg "Os.create: 1-8 vcpus";
  let obs = match obs with Some o -> o | None -> Fc_obs.Obs.create () in
  let t = make ~config ~obs ~engine ~vcpus image in
  (* base kernel text *)
  let text_lo = Image.text_base image and text_hi = Image.text_end image in
  map_fresh_range t ~lo:text_lo ~hi:text_hi;
  copy_code_in t ~base:text_lo (Image.unit_image image).Asm.code;
  (* kernel data: current pointer, task structs, module nodes *)
  map_fresh_range t ~lo:Layout.data_base ~hi:(Layout.data_base + 0x10000);
  (* the whole module area is guest RAM from the start, like real memory;
     module loading only writes bytes into it *)
  map_fresh_range t ~lo:Layout.module_area_base ~hi:Layout.module_area_limit;
  (* idle tasks: one per vCPU, with per-CPU current pointers and stacks *)
  Array.iter
    (fun v ->
      write_task_struct t v.vidle;
      write_guest_u32 t
        (Layout.current_task_ptr_cpu ~vid:v.vid)
        (Layout.task_struct_addr ~pid:v.vidle.Process.pid);
      map_fresh_range t
        ~lo:(Layout.kstack_base + (v.vid * Layout.kstack_size))
        ~hi:(Layout.kstack_base + ((v.vid + 1) * Layout.kstack_size)))
    t.vcpus;
  (* default modules, assembled once per image at these very bases *)
  List.iter
    (fun (name, u) -> ignore (install_module t ~name u))
    (Image.boot_modules image);
  (* the code pages now hold what the image hashed once for every guest *)
  List.iter
    (fun (gva, d) ->
      Option.iter
        (fun hpa -> Phys.set_digest t.phys (Phys.frame_of_addr hpa) d)
        (ram_translate t gva))
    (Image.boot_digests image);
  t

let spawn ?cpu t ~name script =
  check_live t "Os.spawn";
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  if pid > 200 then raise (Guest_panic "too many processes");
  let cpu =
    match cpu with
    | Some c when c >= 0 && c < Array.length t.vcpus -> c
    | Some _ -> invalid_arg "Os.spawn: bad cpu"
    | None -> pid mod Array.length t.vcpus
  in
  map_fresh_range t
    ~lo:(Layout.kstack_base + (pid * Layout.kstack_size))
    ~hi:(Layout.kstack_base + ((pid + 1) * Layout.kstack_size));
  let p = Process.create ~cpu ~pid ~name script in
  t.procs_rev <- p :: t.procs_rev;
  write_task_struct t p;
  p

(* ---------------- CPU plumbing ---------------- *)

(* The reference engine's decode: through the full translation chain and
   the per-offset decodes on the frame's line. *)
let cached_decode_slow t pc =
  match ram_page t (pc / Layout.page_size) with
  | None -> Cpu.D_unmapped
  | Some _ -> (
      match Ept.translate (active_vcpu t).vept (Layout.gva_to_gpa pc) with
      | None -> Cpu.D_unmapped
      | Some hpa ->
          let frame = hpa / Layout.page_size and off = hpa mod Layout.page_size in
          if off > Layout.page_size - 6 then
            (* possible page-crossing instruction: decode uncached *)
            Cpu.decoder_of_fetch (fun a -> fetch_code t a) pc
          else begin
            let version = Phys.version t.phys frame in
            let ln = line_for t frame ~version in
            match ln.decoded.(off) with
            | Some r -> r
            | None ->
                let r = Cpu.decoder_of_fetch (fun a -> fetch_code t a) pc in
                ln.decoded.(off) <- Some r;
                r
          end)

(* The fast engine decodes only what no block covers — page tails, trap
   entries, undecodable bytes — so it decodes uncached, byte by byte
   through the iTLB. *)
let decode_insn t pc =
  if not t.fast then cached_decode_slow t pc
  else Cpu.decoder_of_fetch (fun a -> fetch_code t a) pc

(* ---------------- superblocks ---------------- *)

(* No trap address in [lo, hi]?  One probe of the sorted trap mirror. *)
let no_trap_in t ~lo ~hi =
  lo > hi || t.trap_hi < lo || t.trap_lo > hi
  ||
  let arr = t.trap_arr in
  let n = Array.length arr in
  let rec least l r =
    if l >= r then l
    else
      let m = (l + r) / 2 in
      if arr.(m) < lo then least (m + 1) r else least l m
  in
  let i = least 0 n in
  i >= n || arr.(i) > hi

(* Decode-once basic blocks (DESIGN.md §10).  A block is built from the
   bytes of the host frame an iTLB entry resolved the pc's page to, and
   is stored on that frame's line at its start offset.  The line is
   current for the frame's bytes whenever the entry is valid (a write,
   COW break or materialization moves the version, and the line is
   cleared), and a view switch only changes which frame, and so which
   line, the pc resolves to: the iTLB's one check covers both.

   The decoded ops come from the image's body memo: the line resolves
   its page content's bodies once, by the frame's digest (recorded at
   boot or materialization, so hashed only for bytes written since),
   and finds the body there by start pc, so each body is decoded once
   per image for all its guests.  Memo bodies are decoded with no trap
   stops; a guest uses one only when no trap lies in its interior (the
   entry pc is never a trap here), and otherwise decodes a private,
   trap-split body exactly as the memo's would be split — so every
   guest's blocks are the ones a private decoder would build. *)
let build_sblock t (e : line Tlb.entry) pc =
  if is_trap_addr t pc then None
  else
    let ln = e.Tlb.payload and bytes = e.Tlb.bytes in
    let base = pc - (pc land page_mask) in
    let read a =
      let o = a - base in
      if o >= 0 && o < Layout.page_size then Some (Bytes.get_uint8 bytes o)
      else None
    in
    let decode stop =
      Block.decode ~read ~last:(base + Layout.page_size - 6) ~stop pc
    in
    let page =
      match ln.page with
      | Some p -> p
      | None ->
          let p = Image.page t.image (Phys.digest t.phys e.Tlb.frame) in
          ln.page <- Some p;
          p
    in
    let body =
      match Image.body page ~pc (fun () -> decode (fun _ -> false)) with
      | Some b when no_trap_in t ~lo:b.Block.lo ~hi:b.Block.hi -> Some b
      | Some _ -> decode (is_trap_addr t)
      | None -> None
    in
    Option.map
      (fun body -> { Cpu.sb_start = pc; sb_body = body; sb_trap_gen = t.trap_gen })
      body

(* The trap generation is a fast path only: the builder split the block
   so no interior op was a trap, and on a generation bump we re-check
   just that — entry traps are the outer loop's probe, not the block's —
   and restamp.  The enforcement layer arms and disarms its
   context-switch/resume breakpoints (always block entries) constantly;
   without restamping every switch would rebuild every block. *)
let sblock_fresh t (b : Cpu.sblock) =
  b.Cpu.sb_trap_gen = t.trap_gen
  ||
  let body = b.Cpu.sb_body in
  no_trap_in t ~lo:body.Block.lo ~hi:body.Block.hi
  && begin
       b.Cpu.sb_trap_gen <- t.trap_gen;
       true
     end

(* Block lookup: the iTLB resolves the pc's page to its frame's line, and
   the line holds the block at the pc's offset.  A frame can back two
   guest pages (the frame cache shares identical view pages), and a
   body's targets are absolute, so the stored block serves only the pc it
   was built for; a block found with a trap now in its interior is
   re-split, and counted as an invalidation. *)
let sblock_find t pc =
  let off = pc land page_mask in
  if off > Layout.page_size - 6 then None
  else
    let e = itlb_entry t (pc / Layout.page_size) in
    if e.Tlb.tag < 0 then None
    else
      let blocks = e.Tlb.payload.blocks in
      let b = Array.unsafe_get blocks off in
      if b.Cpu.sb_start = pc && sblock_fresh t b then begin
        Fc_obs.Metrics.incr t.sb_hits;
        Some b
      end
      else begin
        if b.Cpu.sb_start = pc then Fc_obs.Metrics.incr t.sb_invals;
        match build_sblock t e pc with
        | None -> None
        | Some b as r ->
            Fc_obs.Metrics.incr t.sb_built;
            blocks.(off) <- b;
            r
      end

(* The guest kernel's own answer to an exception in kernel mode, as
   Linux's die() on an oops: the current task is killed ([kill_oopsed],
   once [Oops] has unwound its kernel path), unless it is the idle task,
   which cannot die.  Linux also panics on an oops in interrupt context;
   here an interrupt runs on the interrupted task's stack and view and
   holds nothing else, so that task is the one killed. *)
let oops t what =
  let v = active_vcpu t in
  if v.vcurrent == v.vidle then
    raise (Guest_panic ("attempted to kill the idle task: " ^ what))
  else raise Oops

(* After an oops: the task dies where it stood, without running its
   exit path (the kernel code it was executing is what failed).  The
   machine and every other task carry on. *)
let kill_oopsed t (p : Process.t) =
  (active_vcpu t).vin_interrupt <- false;
  ignore (Process.take_saved p);
  p.Process.in_kernel <- false;
  p.Process.state <- Process.Exited;
  Fc_obs.Metrics.incr (Fc_obs.Metrics.family_counter t.oops_kills_f p.Process.name)

let run_cpu t (regs : Cpu.regs) dispatch =
  let decode pc = decode_insn t pc in
  let read_u32 a = read_guest_u32 t a in
  let write_u32 a v = write_guest_u32 t a v in
  let is_trap a =
    is_trap_addr t a
    &&
    match t.faults with None -> true | Some h -> not (h.fh_trap_miss a)
  in
  let sblocks = if t.fast then Some (fun pc -> sblock_find t pc) else None in
  (* What a retry of the exiting instruction reads: its eip, the active
     view and the bytes that view presents there (read without touching
     a TLB).  An exit the handler resumed that comes back with the same
     key, having retired nothing but the trapping instruction itself (a
     UD2 counts as retired), changed nothing the retry depends on, so it
     would come back forever: the exception is the guest's to take. *)
  let retry_key () =
    let eip = regs.Cpu.eip in
    ( eip,
      Ept.tag (active_vcpu t).vept,
      List.init 6 (fun i -> fetch_code_slow t (eip + i)) )
  in
  let rec go skip last =
    match
      Cpu.run ~decode ~read_u32 ~write_u32 ~is_trap ~trace:t.trace
        ?cover:t.cover ?events:t.events ?branch:t.branch_policy ~cycles:t.cycles
        ~instrs:t.instrs ~dispatch ?skip_bp:skip ?sblocks regs
    with
    | Cpu.Breakpoint a -> (
        match t.handler t regs (Exit_breakpoint a) with
        | Resume -> go (Some a) last
        | Panic m -> raise (Guest_panic m))
    | Cpu.Invalid_opcode -> retry last Exit_invalid_opcode
    | Cpu.Blocked id -> `Blocked id
    | Cpu.Returned -> `Returned
    | Cpu.Fault f -> (
        let cur = (active_vcpu t).vcurrent in
        let m =
          Format.asprintf "%a (vcpu %d, pid %d %s, eip=0x%x)" Cpu.pp_exit
            (Cpu.Fault f) t.active cur.Process.pid cur.Process.name
            regs.Cpu.eip
        in
        match f with
        | Cpu.Runaway ->
            (* the simulator's instruction budget, not a guest event: a
               retry would only run the budget out again *)
            raise (Guest_panic m)
        | _ -> retry last (Exit_fault m))
  and retry last exit =
    let key = retry_key () and retired = !(t.instrs) in
    match last with
    | Some (k, r) when k = key && retired - r <= 1 ->
        oops t
          (match exit with
          | Exit_fault m -> m
          | _ -> Printf.sprintf "invalid opcode at 0x%x" regs.Cpu.eip)
    | _ -> (
        match t.handler t regs exit with
        | Resume -> go None (Some (key, retired))
        | Panic m -> raise (Guest_panic m))
  in
  go None None

let exec_invocation t ~entry_addr ~dispatch_addrs ~esp =
  let regs = { Cpu.eip = entry_addr; ebp = 0; esp } in
  Cpu.push ~write_u32:(write_guest_u32 t) regs Cpu.sentinel_return;
  let q = Queue.create () in
  List.iter (fun a -> Queue.add a q) dispatch_addrs;
  let outcome = run_cpu t regs q in
  (outcome, regs, q)

(* Synthesize an invalid-opcode VM exit without executing anything: the
   exit is routed through the installed handler exactly as a real UD2
   trap would be, so the hypervisor's recovery and governor paths see it.
   Used by the fault-injection harness for spurious exits and for exits
   whose register file (ebp) points at a crafted stack. *)
let inject_invalid_opcode t ?(ebp = 0) ?esp ~eip () =
  let v = active_vcpu t in
  let esp =
    match esp with Some e -> e | None -> Process.kstack_top v.vcurrent - 0x100
  in
  let regs = { Cpu.eip; ebp; esp } in
  match t.handler t regs Exit_invalid_opcode with
  | Resume -> ()
  | Panic m -> raise (Guest_panic m)

(* ---------------- interrupts ---------------- *)

let actual_timer_source t source =
  let cur = (active_vcpu t).vcurrent in
  match source with
  | Irq_paths.Timer cs when Hashtbl.mem t.itimers cur.Process.pid ->
      Hashtbl.remove t.itimers cur.Process.pid;
      Irq_paths.Timer_itimer cs
  | s -> s

let deliver_irq t source =
  let v = active_vcpu t in
  let source = actual_timer_source t source in
  let was = v.vin_interrupt in
  v.vin_interrupt <- true;
  let esp = Process.kstack_top v.vcurrent - 0x800 in
  let dispatch = List.map (resolve_exn t) (Irq_paths.dispatch source) in
  let outcome, _, _ =
    exec_invocation t ~entry_addr:(resolve_exn t Irq_paths.entry) ~dispatch_addrs:dispatch ~esp
  in
  v.vin_interrupt <- was;
  match outcome with
  | `Returned -> ()
  | `Blocked _ -> raise (Guest_panic "interrupt handler blocked")

let inject_irq t source =
  try deliver_irq t source with Oops -> kill_oopsed t (current t)

let check_irqs t =
  List.iter
    (fun tm ->
      (* if we fell far behind (e.g. a long hypervisor operation advanced
         the clock), drop the backlog like real hardware drops ticks *)
      if !(t.cycles) - tm.next_at > 2 * tm.period then
        tm.next_at <- !(t.cycles);
      let fired = ref 0 in
      while !(t.cycles) >= tm.next_at && !fired < 2 do
        tm.next_at <- tm.next_at + tm.period;
        incr fired;
        deliver_irq t tm.source
      done;
      if !(t.cycles) >= tm.next_at then tm.next_at <- !(t.cycles) + tm.period)
    t.timers

(* ---------------- syscalls ---------------- *)

(* Guest-visible in-kernel flag at task_struct+20, so the hypervisor's VMI
   can tell a process returning to user mode apart from one resuming
   mid-kernel (the Fig. 3 cross-view situation). *)
let write_in_kernel_flag t (p : Process.t) v =
  write_guest_u32 t (Layout.task_struct_addr ~pid:p.Process.pid + 20) (if v then 1 else 0)

let exec_resume_userspace t (p : Process.t) =
  let outcome, _, _ =
    exec_invocation t
      ~entry_addr:(resolve_exn t "resume_userspace")
      ~dispatch_addrs:[] ~esp:(Process.kstack_top p)
  in
  match outcome with
  | `Returned -> ()
  | `Blocked _ -> raise (Guest_panic "resume_userspace blocked")

let finish_syscall t (p : Process.t) =
  p.Process.in_kernel <- false;
  write_in_kernel_flag t p false;
  p.Process.syscall_count <- p.Process.syscall_count + 1;
  exec_resume_userspace t p

(* [delay]: the rounds the process sleeps if the syscall blocks. *)
let exec_syscall t (p : Process.t) ~delay variant_name =
  let sc = Syscalls.find_exn variant_name in
  let queue_names =
    match t.rewriter with
    | Some f -> (
        match f sc with
        | Some (entry, dispatch) -> entry :: dispatch
        | None -> sc.entry :: sc.dispatch)
    | None -> sc.entry :: sc.dispatch
  in
  p.Process.in_kernel <- true;
  write_in_kernel_flag t p true;
  let clock_fn =
    match t.config.clocksource with
    | Irq_paths.Acpi_pm -> "acpi_pm_read"
    | Irq_paths.Kvmclock -> "kvm_clock_get_cycles"
  in
  let subst n = if String.equal n "@clocksource" then clock_fn else n in
  let dispatch_addrs = List.map (fun n -> resolve_exn t (subst n)) queue_names in
  let outcome, regs, q =
    exec_invocation t
      ~entry_addr:(resolve_exn t "syscall_call")
      ~dispatch_addrs ~esp:(Process.kstack_top p)
  in
  match outcome with
  | `Returned ->
      (* setitimer/alarm arm a real interval timer: subsequent timer
         interrupts in this process' context expire it (it_real_fn). *)
      if String.equal sc.entry "sys_setitimer" || String.equal sc.entry "sys_alarm"
      then arm_itimer t ~pid:p.Process.pid;
      finish_syscall t p;
      `Done
  | `Blocked id ->
      Process.block p ~yield_id:id ~wake_round:(t.round_no + delay) ~regs
        ~dispatch:q;
      `Blocked

let continue_syscall t (p : Process.t) regs q =
  match run_cpu t regs q with
  | `Returned ->
      finish_syscall t p;
      `Done
  | `Blocked id ->
      Process.block p ~yield_id:id ~wake_round:(t.round_no + t.config.wake_delay)
        ~regs ~dispatch:q;
      `Blocked

(* ---------------- scheduler ---------------- *)

(* Run-slice accounting: the cycles a vCPU spends while a given process
   is current are charged to os.run_cycles{comm}, and the slice is
   bracketed by a Run_slice span when the trace is armed.  The sim is
   sequential with one global clock, so on a multi-vCPU guest a slice
   also absorbs cycles burned by the other vCPUs' interleaved turns —
   exact for one vCPU, an upper bound otherwise. *)
let end_run_slice t (v : vcpu) =
  let now = !(t.cycles) in
  let delta = now - v.vslice_start in
  if delta > 0 then
    Fc_obs.Metrics.add
      (Fc_obs.Metrics.family_counter t.run_cycles_f v.vcurrent.Process.name)
      delta;
  v.vslice_start <- now;
  if v.vslice <> Fc_obs.Span.none then begin
    Fc_obs.Span.exit (Fc_obs.Obs.spans t.obs) v.vslice;
    v.vslice <- Fc_obs.Span.none
  end

let begin_run_slice t (v : vcpu) =
  v.vslice_start <- !(t.cycles);
  Fc_obs.Metrics.incr
    (Fc_obs.Metrics.family_counter t.run_slices_f v.vcurrent.Process.name);
  if Fc_obs.Obs.armed t.obs then
    v.vslice <-
      Fc_obs.Span.enter (Fc_obs.Obs.spans t.obs) ~vid:v.vid
        ~pid:v.vcurrent.Process.pid ~comm:v.vcurrent.Process.name
        Fc_obs.Span.Run_slice

let switch_to t (next : Process.t) =
  let v = active_vcpu t in
  if next != v.vcurrent then begin
    t.context_switches <- t.context_switches + 1;
    end_run_slice t v;
    if Fc_obs.Obs.armed t.obs then
      Fc_obs.Obs.emit t.obs
        (Fc_obs.Event.Sched_switch
           { vid = v.vid; pid = next.Process.pid; comm = next.Process.name });
    write_guest_u32 t
      (Layout.current_task_ptr_cpu ~vid:v.vid)
      (Layout.task_struct_addr ~pid:next.Process.pid);
    v.vcurrent <- next;
    begin_run_slice t v;
    let esp =
      match next.Process.saved_regs with
      | Some r -> r.Cpu.esp - 16
      | None -> Process.kstack_top next
    in
    let outcome, _, _ =
      exec_invocation t ~entry_addr:(resolve_exn t "schedule") ~dispatch_addrs:[] ~esp
    in
    match outcome with
    | `Returned -> ()
    | `Blocked _ -> raise (Guest_panic "schedule blocked")
  end;
  next.Process.last_scheduled_round <- t.round_no

let perform_action t (p : Process.t) (act : Action.t) =
  match act with
  | Action.Compute n ->
      add_cycles t n;
      `Done
  | Action.Fault ->
      let outcome, _, _ =
        exec_invocation t
          ~entry_addr:(resolve_exn t "do_page_fault")
          ~dispatch_addrs:[] ~esp:(Process.kstack_top p)
      in
      (match outcome with
      | `Returned -> `Done
      | `Blocked _ -> raise (Guest_panic "fault path blocked"))
  | Action.Syscall v -> exec_syscall t p ~delay:t.config.wake_delay v
  | Action.Sleep rounds -> exec_syscall t p ~delay:rounds "nanosleep"
  | Action.Exit ->
      let (_ : [ `Done | `Blocked ]) =
        exec_syscall t p ~delay:t.config.wake_delay "exit"
      in
      p.Process.state <- Process.Exited;
      `Exited

let run_quantum t (p : Process.t) =
  let budget = ref t.config.quantum in
  let continue_ = ref true in
  (* resume a blocked syscall first *)
  (match Process.take_saved p with
  | Some (regs, q) -> (
      match continue_syscall t p regs q with
      | `Done -> decr budget
      | `Blocked -> continue_ := false)
  | None -> exec_resume_userspace t p);
  check_irqs t;
  while !continue_ && !budget > 0 && Process.is_ready p do
    (match t.faults with None -> () | Some h -> h.fh_pre_action ());
    (match p.Process.script with
    | [] -> p.Process.state <- Process.Exited
    | act :: rest -> (
        p.Process.script <- rest;
        match perform_action t p act with
        | `Done -> decr budget
        | `Blocked | `Exited -> continue_ := false));
    check_irqs t
  done

let fire_round_hooks t =
  let due, later = List.partition (fun (r, _) -> r <= t.round_no) t.at_round in
  t.at_round <- later;
  List.iter (fun (_, f) -> f t) due

let schedule_at_round t r f = t.at_round <- t.at_round @ [ (r, f) ]

let pick_ready t ~vid =
  let ready =
    List.filter (fun (p : Process.t) -> Process.is_ready p && p.cpu = vid) t.procs_rev
  in
  match ready with
  | [] -> None
  | _ ->
      (* least-recently-scheduled first; pid breaks ties *)
      Some
        (List.fold_left
           (fun best (p : Process.t) ->
             match best with
             | None -> Some p
             | Some (b : Process.t) ->
                 if
                   p.last_scheduled_round < b.last_scheduled_round
                   || (p.last_scheduled_round = b.last_scheduled_round && p.pid < b.pid)
                 then Some p
                 else best)
           None ready
        |> Option.get)

let run ?(max_rounds = 1_000_000) ?(until = fun _ -> false) t =
  check_live t "Os.run";
  let live () = List.exists (fun p -> not (Process.is_exited p)) t.procs_rev in
  let rounds = ref 0 in
  t.in_run <- true;
  while live () && (not (until t)) && !rounds < max_rounds do
    incr rounds;
    t.round_no <- t.round_no + 1;
    fire_round_hooks t;
    List.iter (fun p -> Process.wake_if_due p ~round:t.round_no) t.procs_rev;
    Array.iter
      (fun v ->
        t.active <- v.vid;
        (match pick_ready t ~vid:v.vid with
        | None ->
            (* nothing runnable on this vCPU: idle in its swapper *)
            switch_to t v.vidle;
            add_cycles t 2_000;
            check_irqs t
        | Some p -> (
            try
              switch_to t p;
              run_quantum t p
            with Oops -> kill_oopsed t p));
        (* telemetry ticker: a turn can retire past several marks at
           once — fire once per crossed mark so the interval count is
           exactly floor(instructions / period) *)
        match t.tick with
        | None -> ()
        | Some th ->
            while !(t.instrs) >= th.th_next do
              th.th_next <- th.th_next + th.th_period;
              th.th_fire ()
            done)
      t.vcpus;
    t.active <- 0
  done;
  (* flush run-slice accounting and close the spans so the trace stays
     balanced; a later run (or switch) re-opens slices as needed *)
  Array.iter (end_run_slice t) t.vcpus;
  t.in_run <- false;
  if live () && !rounds >= max_rounds then
    raise (Guest_panic "scheduler round budget exhausted")

(* ---------------- snapshot: freeze / thaw ---------------- *)

(* The frozen image captures everything [run] consults that cannot be
   re-derived from guest RAM: scheduler and process state, timers,
   traps, EPT directory shapes, and the physical pool itself.  Caches
   (TLBs, and lines with the superblocks on them) and registered hooks are
   deliberately absent — they are rebuilt demand-side after [thaw], and
   their metrics are restored by the snapshot codec's metrics section. *)

type frozen_proc = {
  zp_pid : int;
  zp_name : string;
  zp_cpu : int;
  zp_script : Action.t list;
  zp_state : Process.run_state;
  zp_saved_regs : (int * int * int) option; (* eip, ebp, esp *)
  zp_saved_dispatch : int list; (* front of the queue first *)
  zp_in_kernel : bool;
  zp_syscall_count : int;
  zp_last_scheduled_round : int;
}

type frozen_module = {
  zm_name : string;
  zm_hidden : bool;
  zm_base : int;
  zm_code : string;
  zm_functions : (string * int * int) list; (* pname, addr, size *)
}

type frozen_timer = {
  zt_source : Irq_paths.source;
  zt_period : int;
  zt_next_at : int;
}

type frozen_vcpu = {
  zv_dirs : (int * int) list; (* EPT dir -> pool table id, sorted *)
  zv_current_pid : int;
  zv_idle_last_round : int;
  zv_slice_start : int;
      (* the open run slice's start cycle: boot work before the first
         run (or the tail of an interrupted slice) is still pending
         attribution to os.run_cycles{current}, and the restored machine
         must charge the same window the uninterrupted one would *)
  zv_view : int; (* the active view id *)
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
  z_next_view : int;
  z_ram : (int * int) list; (* gpa_page -> host frame, sorted *)
  z_phys : Phys.frozen;
  z_vcpus : frozen_vcpu list;
  z_procs : frozen_proc list; (* newest first, as [procs_rev] *)
  z_modules : frozen_module list; (* load order *)
  z_timers : frozen_timer list; (* list order: clocksource then background *)
  z_traps : int list; (* sorted *)
  z_itimers : int list; (* sorted pids *)
}

let freeze t ~table_id =
  check_live t "Os.freeze";
  if t.in_run || Array.exists (fun v -> v.vin_interrupt) t.vcpus then
    invalid_arg
      "Os.freeze: inside Os.run or an interrupt; snapshot only between runs";
  let freeze_proc (p : Process.t) =
    {
      zp_pid = p.Process.pid;
      zp_name = p.Process.name;
      zp_cpu = p.Process.cpu;
      zp_script = p.Process.script;
      zp_state = p.Process.state;
      zp_saved_regs =
        Option.map
          (fun (r : Cpu.regs) -> (r.Cpu.eip, r.Cpu.ebp, r.Cpu.esp))
          p.Process.saved_regs;
      zp_saved_dispatch = List.of_seq (Queue.to_seq p.Process.saved_dispatch);
      zp_in_kernel = p.Process.in_kernel;
      zp_syscall_count = p.Process.syscall_count;
      zp_last_scheduled_round = p.Process.last_scheduled_round;
    }
  in
  {
    z_config = t.config;
    z_engine = (if t.fast then Fast else Reference);
    z_cycles = !(t.cycles);
    z_instrs = !(t.instrs);
    z_round_no = t.round_no;
    z_context_switches = t.context_switches;
    z_next_pid = t.next_pid;
    z_next_module_base = t.next_module_base;
    z_next_view = t.next_view;
    z_ram =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.ram []);
    z_phys = Phys.export t.phys;
    z_vcpus =
      Array.to_list
        (Array.map
           (fun v ->
             {
               zv_dirs =
                 List.map (fun (d, tbl) -> (d, table_id tbl)) (Ept.dirs v.vept);
               zv_current_pid = v.vcurrent.Process.pid;
               zv_idle_last_round = v.vidle.Process.last_scheduled_round;
               zv_slice_start = v.vslice_start;
               zv_view = Ept.tag v.vept;
             })
           t.vcpus);
    z_procs = List.map freeze_proc t.procs_rev;
    z_modules =
      List.map
        (fun m ->
          {
            zm_name = m.mod_name;
            zm_hidden = m.hidden;
            zm_base = m.unit_image.Asm.base;
            zm_code = Bytes.to_string m.unit_image.Asm.code;
            zm_functions =
              List.map
                (fun (p : Asm.placed) -> (p.Asm.pname, p.Asm.addr, p.Asm.size))
                m.unit_image.Asm.functions;
          })
        t.modules;
    z_timers =
      List.map
        (fun tm -> { zt_source = tm.source; zt_period = tm.period; zt_next_at = tm.next_at })
        t.timers;
    z_traps =
      List.sort Int.compare (Hashtbl.fold (fun a () acc -> a :: acc) t.traps []);
    z_itimers =
      List.sort Int.compare (Hashtbl.fold (fun p () acc -> p :: acc) t.itimers []);
  }

let thaw ?obs ~image ~table_of (z : frozen) =
  let vcpus = List.length z.z_vcpus in
  if vcpus < 1 then invalid_arg "Os.thaw: no vCPUs in frozen state";
  let obs = match obs with Some o -> o | None -> Fc_obs.Obs.create () in
  let t = make ~config:z.z_config ~obs ~engine:z.z_engine ~vcpus image in
  (* processes, newest first as stored: identity (and [pick_ready]'s
     tie-break order) depends on [procs_rev] order *)
  t.procs_rev <-
    List.map
      (fun zp ->
        let p =
          Process.create ~cpu:zp.zp_cpu ~pid:zp.zp_pid ~name:zp.zp_name
            zp.zp_script
        in
        p.Process.state <- zp.zp_state;
        p.Process.saved_regs <-
          Option.map
            (fun (eip, ebp, esp) -> { Cpu.eip; ebp; esp })
            zp.zp_saved_regs;
        List.iter (fun d -> Queue.push d p.Process.saved_dispatch) zp.zp_saved_dispatch;
        p.Process.in_kernel <- zp.zp_in_kernel;
        p.Process.syscall_count <- zp.zp_syscall_count;
        p.Process.last_scheduled_round <- zp.zp_last_scheduled_round;
        p)
      z.z_procs;
  List.iteri
    (fun vid zv ->
      let v = t.vcpus.(vid) in
      v.vidle.Process.last_scheduled_round <- zv.zv_idle_last_round;
      List.iter
        (fun (dir, id) -> Ept.install_dir v.vept ~dir (Some (table_of id)))
        zv.zv_dirs;
      Ept.set_view v.vept ~view:zv.zv_view;
      (if zv.zv_current_pid <> vid then
         match find_process t ~pid:zv.zv_current_pid with
         | Some p -> v.vcurrent <- p
         | None ->
             invalid_arg
               (Printf.sprintf "Os.thaw: vCPU %d current pid %d not in snapshot"
                  vid zv.zv_current_pid));
      v.vslice_start <- zv.zv_slice_start)
    z.z_vcpus;
  List.iter (fun (gpa_page, frame) -> Hashtbl.replace t.ram gpa_page frame) z.z_ram;
  List.iter (fun pid -> Hashtbl.replace t.itimers pid ()) z.z_itimers;
  t.modules <-
    List.map
      (fun zm ->
        {
          mod_name = zm.zm_name;
          hidden = zm.zm_hidden;
          unit_image =
            {
              Asm.base = zm.zm_base;
              code = Bytes.of_string zm.zm_code;
              functions =
                List.map
                  (fun (pname, addr, size) -> { Asm.pname; addr; size })
                  zm.zm_functions;
            };
        })
      z.z_modules;
  t.cycles := z.z_cycles;
  t.instrs := z.z_instrs;
  t.next_view <- z.z_next_view;
  t.round_no <- z.z_round_no;
  t.context_switches <- z.z_context_switches;
  t.next_pid <- z.z_next_pid;
  t.next_module_base <- z.z_next_module_base;
  t.timers <-
    List.map
      (fun zt -> { source = zt.zt_source; period = zt.zt_period; next_at = zt.zt_next_at })
      z.z_timers;
  Phys.import t.phys z.z_phys;
  (* traps: refill the set and rebuild the sorted mirror; the lines are
     empty, so no block carries an older trap generation *)
  List.iter (fun a -> Hashtbl.replace t.traps a ()) z.z_traps;
  rebuild_traps t;
  (* module symbols in load order, the sequence [install_module]
     registered them in *)
  List.iter (fun m -> register_module_symbols t m.unit_image) t.modules;
  t
