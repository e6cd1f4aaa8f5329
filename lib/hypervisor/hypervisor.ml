module Os = Fc_machine.Os
module Cpu = Fc_machine.Cpu
module Process = Fc_machine.Process
module Layout = Fc_kernel.Layout
module Image = Fc_kernel.Image
module Symbols = Fc_kernel.Symbols
module Catalog = Fc_kernel.Catalog

module Obs = Fc_obs.Obs
module Metrics = Fc_obs.Metrics
module Event = Fc_obs.Event

type t = {
  os : Os.t;
  obs : Obs.t;
  original_tables : (int, Fc_mem.Ept.table) Hashtbl.t;
  frame_cache : Fc_mem.Frame_cache.t;
  mutable symbols : Symbols.t;
  mutable visible_modules : (string * int * int) list;
  mutable bp_handlers : (t -> Cpu.regs -> int -> unit) list;
  mutable io_handler : t -> Cpu.regs -> [ `Handled | `Unhandled of string ];
  mutable fault_handler :
    t -> Cpu.regs -> string -> [ `Handled | `Unhandled of string ];
  breakpoint_exits : Metrics.counter;
  invalid_opcode_exits : Metrics.counter;
  cycles_charged : Metrics.counter;
  charge_cycles : Metrics.histogram;
  app_cycles : Metrics.family; (* hyp.cycles_charged{comm} *)
  mutable app_memo : (string * Metrics.counter) option;
      (* last (comm, member) resolved from [app_cycles]: charge bursts
         come from one current task, so one cached pair removes the
         family lookup from the hot path *)
}

let os t = t.os
let obs t = t.obs
let frame_cache t = t.frame_cache

let app_counter t =
  let comm = (Os.current t.os).Process.name in
  match t.app_memo with
  | Some (c, counter) when String.equal c comm -> counter
  | _ ->
      let counter = Metrics.family_counter t.app_cycles comm in
      t.app_memo <- Some (comm, counter);
      counter

let charge t n =
  Metrics.add t.cycles_charged n;
  Metrics.add (app_counter t) n;
  Metrics.observe t.charge_cycles n;
  Os.add_cycles t.os n

(* Open a span attributed to the current task; returns Span.none (and
   allocates nothing) when the trace is disarmed. *)
let span_enter t kind =
  if Obs.armed t.obs then begin
    let cur = Os.current t.os in
    Fc_obs.Span.enter (Obs.spans t.obs) ~vid:(Os.active_vcpu_id t.os)
      ~pid:cur.Process.pid ~comm:cur.Process.name kind
  end
  else Fc_obs.Span.none

let span_exit t sid = Fc_obs.Span.exit (Obs.spans t.obs) sid

let set_breakpoint t a = Os.set_trap t.os a
let clear_breakpoint t a = Os.clear_trap t.os a
let has_breakpoint t a = List.mem a (Os.trap_addresses t.os)
let breakpoint_exits t = Metrics.value t.breakpoint_exits
let invalid_opcode_exits t = Metrics.value t.invalid_opcode_exits
let vm_exits t = breakpoint_exits t + invalid_opcode_exits t
let cycles_charged t = Metrics.value t.cycles_charged
let on_breakpoint t f = t.bp_handlers <- t.bp_handlers @ [ f ]
let on_invalid_opcode t f = t.io_handler <- f
let on_fault t f = t.fault_handler <- f
let current_task t = Os.vmi_current_task t.os
let module_list t = Os.vmi_module_list t.os
let read_guest_byte t a = Os.read_guest_byte t.os a
let read_guest_u32 t a = Os.read_guest_u32 t.os a
let read_original_code t a = Os.read_guest_byte t.os a
let iter_original_code t ~lo ~hi f = Os.iter_ram t.os ~lo ~hi f
let read_active_code t a = Os.fetch_code t.os a
let original_frame t ~gpa_page = Os.ram_frame t.os ~gpa_page
let original_table t ~dir = Hashtbl.find_opt t.original_tables dir

type walk = { frames : int list; broken : string option }

(* The frame-chain logic shared by the charged recovery walk and the
   telemetry sampler's free walk.  [on_frame] is the per-frame cost hook:
   the recovery path charges Cost.backtrace_frame through it (advancing
   guest time and perturbing timer IRQs — correct for a walk the
   hypervisor really performs), while the sampler passes a no-op so
   profiling stays behavior-invisible. *)
let walk_impl t ~on_frame ~eip ~ebp ~esp ~max_depth =
  let broken = ref None in
  let stop reason acc =
    broken := Some reason;
    List.rev acc
  in
  (* the stack grows down, so a well-formed chain is strictly increasing;
     any cycle must contain a non-increasing link, which bounds the walk
     without remembering visited frames *)
  let rec go acc ebp depth =
    if ebp = 0 then List.rev acc
    else if not (Layout.is_kernel_address ebp) then
      stop (Printf.sprintf "rbp chain left the kernel range at 0x%x" ebp) acc
    else if depth >= max_depth then
      stop (Printf.sprintf "rbp chain exceeded depth cap %d" max_depth) acc
    else begin
      on_frame ();
      match (read_guest_u32 t (ebp + 4), read_guest_u32 t ebp) with
      | Some ret, Some prev_ebp ->
          if ret = Cpu.sentinel_return || not (Layout.is_kernel_address ret)
          then List.rev acc
          else if prev_ebp <> 0 && prev_ebp <= ebp then
            stop
              (Printf.sprintf "cyclic rbp chain at 0x%x (next frame 0x%x)"
                 ebp prev_ebp)
              (ret :: acc)
          else go (ret :: acc) prev_ebp (depth + 1)
      | _ -> stop (Printf.sprintf "unreadable stack frame at 0x%x" ebp) acc
    end
  in
  (* a fault at a function entry has not pushed ebp yet: the immediate
     caller's return address still sits at the top of the stack *)
  let entry_caller =
    match esp with
    | Some esp
      when Fc_isa.Scan.is_prologue_at ~read:(read_original_code t) eip -> (
        on_frame ();
        match read_guest_u32 t esp with
        | Some ret
          when ret <> Cpu.sentinel_return && Layout.is_kernel_address ret ->
            [ ret ]
        | Some _ | None -> [])
    | Some _ | None -> []
  in
  let frames = (eip :: entry_caller) @ go [] ebp 0 in
  { frames; broken = !broken }

let stack_walk t ~eip ~ebp ?esp ?(max_depth = 64) () =
  let sid = span_enter t Fc_obs.Span.Backtrace in
  let w =
    walk_impl t
      ~on_frame:(fun () -> charge t Cost.backtrace_frame)
      ~eip ~ebp ~esp ~max_depth
  in
  span_exit t sid;
  w

let sample_stack t ~eip ~ebp ?esp ?(max_depth = 64) () =
  (* uncharged and span-free: the telemetry sampler walks stacks without
     advancing guest time or emitting trace records, so an armed profiler
     cannot drift any pinned counter *)
  walk_impl t ~on_frame:(fun () -> ()) ~eip ~ebp ~esp ~max_depth

let stack_frames t ~eip ~ebp ?esp ?max_depth () =
  (stack_walk t ~eip ~ebp ?esp ?max_depth ()).frames

(* The table is a function of the image and the VMI module list only. *)
let symbols_for os mods =
  let syms = Symbols.create () in
  (* System.map: the base kernel's function symbols. *)
  Symbols.add_unit syms (Image.unit_image (Os.image os));
  (* VMI-visible modules: if the name matches a known distro module, we
     have its .ko symbols; assemble its layout at the observed base. *)
  List.iter
    (fun (name, base, _size) ->
      if List.mem_assoc name Catalog.module_functions then
        match Image.assemble_module (Os.image os) ~name ~base with
        | Ok u -> Symbols.add_unit syms ~module_name:name u
        | Error _ -> ())
    mods;
  syms

(* Runs at every invalid-opcode exit, so an unchanged module list keeps
   the table; a hidden or newly loaded module changes the list and gets
   a rebuilt one. *)
let refresh_symbols t =
  let mods = module_list t in
  if mods <> t.visible_modules then begin
    t.visible_modules <- mods;
    t.symbols <- symbols_for t.os mods
  end

let symbols t = t.symbols
let addr_of_symbol t name = Symbols.addr_of t.symbols name

let render_addr t addr =
  match Symbols.find t.symbols addr with
  | Some _ -> Symbols.render t.symbols addr
  | None -> (
      match
        List.find_opt
          (fun (_, base, size) -> base <= addr && addr < base + size)
          t.visible_modules
      with
      | Some (name, base, _) ->
          Printf.sprintf "0x%x <mod:%s+0x%x>" addr name (addr - base)
      | None -> Printf.sprintf "0x%x <UNKNOWN>" addr)

(* An exit at [eip] the installed handler may repair: [`Handled] retries
   the instruction, [`Unhandled] kills the guest. *)
let repair t regs reason handler =
  let sid = span_enter t Fc_obs.Span.Exit_handling in
  if Obs.armed t.obs then
    Obs.emit t.obs (Event.Vm_exit { reason; addr = regs.Cpu.eip });
  charge t Cost.vm_exit;
  let result = handler () in
  span_exit t sid;
  match result with
  | `Handled -> Os.Resume
  | `Unhandled reason -> Os.Panic reason

let dispatch_exit t regs = function
  | Os.Exit_breakpoint addr ->
      Metrics.incr t.breakpoint_exits;
      let sid = span_enter t Fc_obs.Span.Exit_handling in
      if Obs.armed t.obs then
        Obs.emit t.obs
          (Event.Vm_exit { reason = Event.Exit_breakpoint; addr });
      charge t Cost.vm_exit;
      List.iter (fun h -> h t regs addr) t.bp_handlers;
      span_exit t sid;
      Os.Resume
  | Os.Exit_invalid_opcode ->
      Metrics.incr t.invalid_opcode_exits;
      repair t regs Event.Exit_invalid_opcode (fun () -> t.io_handler t regs)
  | Os.Exit_fault m ->
      repair t regs Event.Exit_fault (fun () -> t.fault_handler t regs m)

let snapshot_tables os =
  let tables = Hashtbl.create 16 in
  let note gva =
    let dir = Fc_mem.Ept.dir_of_page (Layout.page_of (Layout.gva_to_gpa gva)) in
    if not (Hashtbl.mem tables dir) then
      match Fc_mem.Ept.get_dir (Os.ept os) ~dir with
      | Some table -> Hashtbl.replace tables dir table
      | None -> ()
  in
  let img = Os.image os in
  let rec sweep gva limit =
    if gva < limit then begin
      note gva;
      sweep (gva + (Fc_mem.Ept.dir_span_pages * Layout.page_size)) limit
    end
  in
  sweep (Image.text_base img) (Image.text_end img);
  note (Image.text_end img - 1);
  sweep Layout.module_area_base Layout.module_area_limit;
  note (Layout.module_area_limit - 1);
  tables

let attach os =
  let obs = Os.obs os in
  let m = Obs.metrics obs in
  let mods = Os.vmi_module_list os in
  let t =
    {
      os;
      obs;
      original_tables = snapshot_tables os;
      frame_cache = Fc_mem.Frame_cache.create ~obs (Os.phys os);
      symbols = symbols_for os mods;
      visible_modules = mods;
      bp_handlers = [];
      io_handler = (fun _ _ -> `Unhandled "invalid opcode (no recovery installed)");
      fault_handler = (fun _ _ m -> `Unhandled m);
      breakpoint_exits = Metrics.counter m ~subsystem:"hyp" "breakpoint_exits";
      invalid_opcode_exits =
        Metrics.counter m ~subsystem:"hyp" "invalid_opcode_exits";
      cycles_charged = Metrics.counter m ~subsystem:"hyp" "cycles_charged";
      charge_cycles = Metrics.histogram m ~subsystem:"hyp" "charge_cycles";
      app_cycles = Metrics.counter_family m ~subsystem:"hyp" "cycles_charged";
      app_memo = None;
    }
  in
  (* a fresh hypervisor starts from zero even if a previous attachment to
     this guest registered the same counters *)
  Metrics.reset t.breakpoint_exits;
  Metrics.reset t.invalid_opcode_exits;
  Metrics.reset t.cycles_charged;
  Metrics.reset_histogram t.charge_cycles;
  Metrics.reset_family t.app_cycles;
  Os.set_exit_handler os (fun _os regs exit -> dispatch_exit t regs exit);
  t

let detach t =
  List.iter (Os.clear_trap t.os) (Os.trap_addresses t.os);
  Os.set_exit_handler t.os (fun _ _ -> function
    | Os.Exit_breakpoint _ -> Os.Resume
    | Os.Exit_invalid_opcode -> Os.Panic "invalid opcode in guest kernel (no hypervisor)"
    | Os.Exit_fault m -> Os.Panic m)

(* ---------------- snapshot: freeze / restore ---------------- *)

type frozen = {
  zh_tables : (int * int) list; (* EPT dir -> pool table id, sorted *)
  zh_cache : (string * int * int) list; (* Frame_cache.export *)
}

let freeze t ~table_id =
  {
    zh_tables =
      List.sort compare
        (Hashtbl.fold
           (fun dir tbl acc -> (dir, table_id tbl) :: acc)
           t.original_tables []);
    zh_cache = Fc_mem.Frame_cache.export t.frame_cache;
  }

let restore ~os ~table_of (z : frozen) =
  let obs = Os.obs os in
  let m = Obs.metrics obs in
  let original_tables = Hashtbl.create 16 in
  List.iter
    (fun (dir, id) -> Hashtbl.replace original_tables dir (table_of id))
    z.zh_tables;
  let frame_cache = Fc_mem.Frame_cache.create ~obs (Os.phys os) in
  Fc_mem.Frame_cache.import frame_cache z.zh_cache;
  let mods = Os.vmi_module_list os in
  let t =
    {
      os;
      obs;
      original_tables;
      frame_cache;
      symbols = symbols_for os mods;
      visible_modules = mods;
      bp_handlers = [];
      io_handler = (fun _ _ -> `Unhandled "invalid opcode (no recovery installed)");
      fault_handler = (fun _ _ m -> `Unhandled m);
      breakpoint_exits = Metrics.counter m ~subsystem:"hyp" "breakpoint_exits";
      invalid_opcode_exits =
        Metrics.counter m ~subsystem:"hyp" "invalid_opcode_exits";
      cycles_charged = Metrics.counter m ~subsystem:"hyp" "cycles_charged";
      charge_cycles = Metrics.histogram m ~subsystem:"hyp" "charge_cycles";
      app_cycles = Metrics.counter_family m ~subsystem:"hyp" "cycles_charged";
      app_memo = None;
    }
  in
  (* no counter resets here: the codec applies its metrics section after
     every layer is restored, and a fresh registry already reads zero *)
  Os.set_exit_handler os (fun _os regs exit -> dispatch_exit t regs exit);
  t
