(* Deterministic whole-machine snapshots (DESIGN.md §13).

   A snapshot is the frozen plain-data image of every layer — OS,
   hypervisor, FACE-CHANGE, fault-plan cursor, metrics — plus the
   identity-preserving EPT table pool and a content-keyed store of guest
   RAM pages.  The binary format is versioned, length-prefixed and
   CRC-guarded per section, and the decoder is total: corrupt, truncated
   or wrong-version input comes back as a typed [error] naming the
   section and byte offset, never as an exception. *)

module Os = Fc_machine.Os
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module View = Fc_core.View
module Governor = Fc_core.Governor
module Injector = Fc_faults.Injector
module Fault = Fc_faults.Fault
module Ept = Fc_mem.Ept
module Phys = Fc_mem.Phys_mem
module Image = Fc_kernel.Image
module Irq_paths = Fc_kernel.Irq_paths
module Action = Fc_machine.Action
module Obs = Fc_obs.Obs
module Metrics = Fc_obs.Metrics

(* ---------------- snapshot value ---------------- *)

type t = {
  s_meta : (string * string) list;
  s_tables : (int * int) list array; (* pool id -> sparse (slot, frame) *)
  s_os : Os.frozen;
  s_hyp : Hyp.frozen option;
  s_fc : Facechange.frozen option;
  s_cursor : Injector.cursor option;
  s_metrics : Metrics.dump_entry list;
}

type error = { section : string; offset : int; reason : string }

let error_to_string e =
  Printf.sprintf "snapshot decode failed in section %s at byte %d: %s"
    e.section e.offset e.reason

let meta t = t.s_meta
let meta_find t key = List.assoc_opt key t.s_meta

(* ---------------- capture ---------------- *)

(* Identity-interning table pool: EPT leaf tables are shared by
   reference across vCPU directories, the hypervisor's pristine set and
   every view, and restore must preserve exactly that sharing.  Interning
   is a linear [==] scan — pools are tens of tables, not thousands. *)
let mk_pool () =
  let tables = ref [] and count = ref 0 in
  let table_id tbl =
    let rec find seen = function
      | [] -> None
      | x :: _ when x == tbl -> Some (!count - 1 - seen)
      | _ :: rest -> find (seen + 1) rest
    in
    match find 0 !tables with
    | Some id -> id
    | None ->
        let id = !count in
        tables := tbl :: !tables;
        incr count;
        id
  in
  (tables, table_id)

let capture ?(meta = []) ?cursor ?fc ?hyp os =
  let tables, table_id = mk_pool () in
  let s_os = Os.freeze os ~table_id in
  let s_hyp = Option.map (fun h -> Hyp.freeze h ~table_id) hyp in
  let s_fc = Option.map (fun f -> Facechange.freeze f ~table_id) fc in
  {
    s_meta = meta;
    (* [!tables] is newest-first; ids were assigned in insertion order,
       so the pool in id order is the reversed list *)
    s_tables = Array.of_list (List.rev_map Ept.table_entries !tables);
    s_os;
    s_hyp;
    s_fc;
    s_cursor = cursor;
    s_metrics = Metrics.dump (Obs.metrics (Os.obs os));
  }

(* ---------------- restore ---------------- *)

type restored = {
  r_os : Os.t;
  r_hyp : Hyp.t option;
  r_fc : Facechange.t option;
  r_inj : Injector.t option;
  r_meta : (string * string) list;
}

let restore ?obs ?image t =
  let image = match image with Some i -> i | None -> Image.build_exn () in
  let pool = Array.map Ept.table_of_entries t.s_tables in
  let table_of id =
    if id < 0 || id >= Array.length pool then
      invalid_arg (Printf.sprintf "Snapshot.restore: table id %d out of pool" id)
    else pool.(id)
  in
  let os = Os.thaw ?obs ~image ~table_of t.s_os in
  let hyp = Option.map (fun z -> Hyp.restore ~os ~table_of z) t.s_hyp in
  let fc =
    match (t.s_fc, hyp) with
    | Some zf, Some h -> Some (Facechange.restore ~hyp:h ~table_of zf)
    | Some _, None ->
        invalid_arg "Snapshot.restore: FACE-CHANGE section without hypervisor"
    | None, _ -> None
  in
  let inj =
    match (t.s_cursor, hyp, fc) with
    | Some c, Some h, Some f -> Some (Injector.rearm ~os ~hyp:h ~fc:f c)
    | Some _, _, _ ->
        invalid_arg "Snapshot.restore: fault cursor without hypervisor and views"
    | None, _, _ -> None
  in
  (* metrics last: layer constructors register instruments at zero; the
     dump overwrites them with the captured continuous-run values *)
  Metrics.load (Obs.metrics (Os.obs os)) t.s_metrics;
  { r_os = os; r_hyp = hyp; r_fc = fc; r_inj = inj; r_meta = t.s_meta }

(* ---------------- CRC32 (IEEE, table-driven; no zlib dependency) ------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let tbl = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := tbl.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ---------------- writer ---------------- *)

let w_int b v =
  let cell = Bytes.create 8 in
  Bytes.set_int64_le cell 0 (Int64.of_int v);
  Buffer.add_bytes b cell

let w_bool b v = Buffer.add_char b (if v then '\001' else '\000')
let w_tag b v = Buffer.add_char b (Char.chr (v land 0xff))

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_list b f xs =
  w_int b (List.length xs);
  List.iter (f b) xs

let w_option b f = function
  | None -> w_tag b 0
  | Some v ->
      w_tag b 1;
      f b v

let w_pair fa fb b (x, y) =
  fa b x;
  fb b y

let w_triple fa fb fc b (x, y, z) =
  fa b x;
  fb b y;
  fc b z

(* ---------------- reader ---------------- *)

exception Decode_err of int * string

type reader = { src : string; mutable pos : int }

let fail r reason = raise (Decode_err (r.pos, reason))

let need r n =
  if n < 0 || r.pos + n > String.length r.src then
    fail r
      (Printf.sprintf "truncated: need %d bytes, %d remain" n
         (String.length r.src - r.pos))

let r_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let r_tag r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_bool r =
  match r_tag r with
  | 0 -> false
  | 1 -> true
  | n -> fail r (Printf.sprintf "bad boolean byte %d" n)

let r_string r =
  let n = r_int r in
  if n < 0 then fail r (Printf.sprintf "negative string length %d" n);
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let r_list r f =
  let n = r_int r in
  if n < 0 then fail r (Printf.sprintf "negative list length %d" n);
  List.init n (fun _ -> f r)

let r_option r f = match r_tag r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> fail r (Printf.sprintf "bad option tag %d" n)

let r_pair fa fb r =
  let a = fa r in
  let b = fb r in
  (a, b)

let r_triple fa fb fc r =
  let a = fa r in
  let b = fb r in
  let c = fc r in
  (a, b, c)

(* ---------------- domain codecs ---------------- *)

let w_clocksource b = function
  | Irq_paths.Acpi_pm -> w_tag b 0
  | Irq_paths.Kvmclock -> w_tag b 1

let r_clocksource r =
  match r_tag r with
  | 0 -> Irq_paths.Acpi_pm
  | 1 -> Irq_paths.Kvmclock
  | n -> fail r (Printf.sprintf "bad clocksource tag %d" n)

let w_engine b = function Os.Reference -> w_tag b 0 | Os.Fast -> w_tag b 1

let r_engine r =
  match r_tag r with
  | 0 -> Os.Reference
  | 1 -> Os.Fast
  | n -> fail r (Printf.sprintf "bad engine tag %d" n)

let w_irq_source b = function
  | Irq_paths.Timer cs ->
      w_tag b 0;
      w_clocksource b cs
  | Irq_paths.Timer_itimer cs ->
      w_tag b 1;
      w_clocksource b cs
  | Irq_paths.Keyboard_console -> w_tag b 2
  | Irq_paths.Keyboard_evdev -> w_tag b 3
  | Irq_paths.Net_rx_tcp -> w_tag b 4
  | Irq_paths.Net_rx_udp -> w_tag b 5
  | Irq_paths.Net_rx_sniffed_tcp -> w_tag b 6
  | Irq_paths.Net_rx_sniffed_udp -> w_tag b 7
  | Irq_paths.Disk -> w_tag b 8

let r_irq_source r =
  match r_tag r with
  | 0 -> Irq_paths.Timer (r_clocksource r)
  | 1 -> Irq_paths.Timer_itimer (r_clocksource r)
  | 2 -> Irq_paths.Keyboard_console
  | 3 -> Irq_paths.Keyboard_evdev
  | 4 -> Irq_paths.Net_rx_tcp
  | 5 -> Irq_paths.Net_rx_udp
  | 6 -> Irq_paths.Net_rx_sniffed_tcp
  | 7 -> Irq_paths.Net_rx_sniffed_udp
  | 8 -> Irq_paths.Disk
  | n -> fail r (Printf.sprintf "bad irq source tag %d" n)

let w_action b = function
  | Action.Syscall s ->
      w_tag b 0;
      w_string b s
  | Action.Compute n ->
      w_tag b 1;
      w_int b n
  | Action.Sleep n ->
      w_tag b 2;
      w_int b n
  | Action.Fault -> w_tag b 3
  | Action.Exit -> w_tag b 4

let r_action r =
  match r_tag r with
  | 0 -> Action.Syscall (r_string r)
  | 1 -> Action.Compute (r_int r)
  | 2 -> Action.Sleep (r_int r)
  | 3 -> Action.Fault
  | 4 -> Action.Exit
  | n -> fail r (Printf.sprintf "bad action tag %d" n)

let w_run_state b = function
  | Process.Ready -> w_tag b 0
  | Process.Blocked { yield_id; wake_round } ->
      w_tag b 1;
      w_int b yield_id;
      w_int b wake_round
  | Process.Exited -> w_tag b 2

let r_run_state r =
  match r_tag r with
  | 0 -> Process.Ready
  | 1 ->
      let yield_id = r_int r in
      let wake_round = r_int r in
      Process.Blocked { yield_id; wake_round }
  | 2 -> Process.Exited
  | n -> fail r (Printf.sprintf "bad run_state tag %d" n)

let w_int_pair = w_pair w_int w_int
let r_int_pair = r_pair r_int r_int

let w_config b (c : Os.config) =
  w_clocksource b c.Os.clocksource;
  w_int b c.Os.timer_period;
  w_int b c.Os.quantum;
  w_int b c.Os.wake_delay;
  w_list b (w_pair w_irq_source w_int) c.Os.background_irqs

let r_config r =
  let clocksource = r_clocksource r in
  let timer_period = r_int r in
  let quantum = r_int r in
  let wake_delay = r_int r in
  let background_irqs = r_list r (r_pair r_irq_source r_int) in
  { Os.clocksource; timer_period; quantum; wake_delay; background_irqs }

let w_fault_kind b = function
  | Fault.Spurious_ud2 { frac; count } ->
      w_tag b 0;
      w_int b frac;
      w_int b count
  | Fault.Broken_rbp { frac } ->
      w_tag b 1;
      w_int b frac
  | Fault.Cyclic_rbp { frac } ->
      w_tag b 2;
      w_int b frac
  | Fault.Flip_view_byte { frac } ->
      w_tag b 3;
      w_int b frac
  | Fault.Evict_frames -> w_tag b 4
  | Fault.Miss_breakpoints { count } ->
      w_tag b 5;
      w_int b count
  | Fault.Truncated_config -> w_tag b 6
  | Fault.Overlapping_config -> w_tag b 7

let r_fault_kind r =
  match r_tag r with
  | 0 ->
      let frac = r_int r in
      let count = r_int r in
      Fault.Spurious_ud2 { frac; count }
  | 1 -> Fault.Broken_rbp { frac = r_int r }
  | 2 -> Fault.Cyclic_rbp { frac = r_int r }
  | 3 -> Fault.Flip_view_byte { frac = r_int r }
  | 4 -> Fault.Evict_frames
  | 5 -> Fault.Miss_breakpoints { count = r_int r }
  | 6 -> Fault.Truncated_config
  | 7 -> Fault.Overlapping_config
  | n -> fail r (Printf.sprintf "bad fault kind tag %d" n)

let w_fault_event b (e : Fault.event) =
  w_int b e.Fault.at_round;
  w_fault_kind b e.Fault.kind

let r_fault_event r =
  let at_round = r_int r in
  let kind = r_fault_kind r in
  { Fault.at_round; kind }

let w_gov_state b = function
  | Governor.Narrow -> w_tag b 0
  | Governor.Throttled -> w_tag b 1
  | Governor.Degraded -> w_tag b 2
  | Governor.Quarantined -> w_tag b 3

let r_gov_state r =
  match r_tag r with
  | 0 -> Governor.Narrow
  | 1 -> Governor.Throttled
  | 2 -> Governor.Degraded
  | 3 -> Governor.Quarantined
  | n -> fail r (Printf.sprintf "bad governor state tag %d" n)

let w_gov_policy b (p : Governor.policy) =
  w_int b p.Governor.window_cycles;
  w_int b p.Governor.throttle_after;
  w_int b p.Governor.storm_after;
  w_int b p.Governor.cooldown_cycles;
  w_int b p.Governor.quarantine_after;
  w_int b p.Governor.max_backtrace_depth;
  w_tag b (match p.Governor.on_unhandled with `Degrade -> 0 | `Die -> 1)

let r_gov_policy r =
  let window_cycles = r_int r in
  let throttle_after = r_int r in
  let storm_after = r_int r in
  let cooldown_cycles = r_int r in
  let quarantine_after = r_int r in
  let max_backtrace_depth = r_int r in
  let on_unhandled =
    match r_tag r with
    | 0 -> `Degrade
    | 1 -> `Die
    | n -> fail r (Printf.sprintf "bad on_unhandled tag %d" n)
  in
  {
    Governor.window_cycles;
    throttle_after;
    storm_after;
    cooldown_cycles;
    quarantine_after;
    max_backtrace_depth;
    on_unhandled;
  }

let w_gov_frozen b (z : Governor.frozen) =
  w_gov_policy b z.Governor.zg_policy;
  w_list b
    (w_pair w_string (fun b (a : Governor.frozen_app) ->
         w_gov_state b a.Governor.za_st;
         w_list b w_int a.Governor.za_recent;
         w_int b a.Governor.za_degradations;
         w_int b a.Governor.za_degraded_at;
         w_int b a.Governor.za_unhandled))
    z.Governor.zg_apps

let r_gov_frozen r =
  let zg_policy = r_gov_policy r in
  let zg_apps =
    r_list r
      (r_pair r_string (fun r ->
           let za_st = r_gov_state r in
           let za_recent = r_list r r_int in
           let za_degradations = r_int r in
           let za_degraded_at = r_int r in
           let za_unhandled = r_int r in
           { Governor.za_st; za_recent; za_degradations; za_degraded_at; za_unhandled }))
  in
  { Governor.zg_policy; zg_apps }

(* --- OS frozen --- *)

let w_frozen_proc b (p : Os.frozen_proc) =
  w_int b p.Os.zp_pid;
  w_string b p.Os.zp_name;
  w_int b p.Os.zp_cpu;
  w_list b w_action p.Os.zp_script;
  w_run_state b p.Os.zp_state;
  w_option b (w_triple w_int w_int w_int) p.Os.zp_saved_regs;
  w_list b w_int p.Os.zp_saved_dispatch;
  w_bool b p.Os.zp_in_kernel;
  w_int b p.Os.zp_syscall_count;
  w_int b p.Os.zp_last_scheduled_round;
  w_list b w_int_pair p.Os.zp_mappings

let r_frozen_proc r =
  let zp_pid = r_int r in
  let zp_name = r_string r in
  let zp_cpu = r_int r in
  let zp_script = r_list r r_action in
  let zp_state = r_run_state r in
  let zp_saved_regs = r_option r (r_triple r_int r_int r_int) in
  let zp_saved_dispatch = r_list r r_int in
  let zp_in_kernel = r_bool r in
  let zp_syscall_count = r_int r in
  let zp_last_scheduled_round = r_int r in
  let zp_mappings = r_list r r_int_pair in
  {
    Os.zp_pid;
    zp_name;
    zp_cpu;
    zp_script;
    zp_state;
    zp_saved_regs;
    zp_saved_dispatch;
    zp_in_kernel;
    zp_syscall_count;
    zp_last_scheduled_round;
    zp_mappings;
  }

let w_frozen_module b (m : Os.frozen_module) =
  w_string b m.Os.zm_name;
  w_bool b m.Os.zm_hidden;
  w_int b m.Os.zm_base;
  w_string b m.Os.zm_code;
  w_list b (w_triple w_string w_int w_int) m.Os.zm_functions

let r_frozen_module r =
  let zm_name = r_string r in
  let zm_hidden = r_bool r in
  let zm_base = r_int r in
  let zm_code = r_string r in
  let zm_functions = r_list r (r_triple r_string r_int r_int) in
  { Os.zm_name; zm_hidden; zm_base; zm_code; zm_functions }

let w_frozen_timer b (tm : Os.frozen_timer) =
  w_irq_source b tm.Os.zt_source;
  w_int b tm.Os.zt_period;
  w_int b tm.Os.zt_next_at

let r_frozen_timer r =
  let zt_source = r_irq_source r in
  let zt_period = r_int r in
  let zt_next_at = r_int r in
  { Os.zt_source; zt_period; zt_next_at }

(* Format version 2: each vCPU carries its EPT tag state (active view,
   era, per-view generations, flush count) so view-tagged translation
   validity — and the tlb.i_flushes gauge — survive restore. *)
let w_ept_tags b (z : Ept.tags) =
  w_int b z.Ept.zt_view;
  w_int b z.Ept.zt_era;
  w_int b z.Ept.zt_flushes;
  w_list b w_int_pair z.Ept.zt_gens

let r_ept_tags r =
  let zt_view = r_int r in
  let zt_era = r_int r in
  let zt_flushes = r_int r in
  let zt_gens = r_list r r_int_pair in
  { Ept.zt_view; zt_era; zt_flushes; zt_gens }

let w_frozen_vcpu b (v : Os.frozen_vcpu) =
  w_list b w_int_pair v.Os.zv_dirs;
  w_int b v.Os.zv_current_pid;
  w_bool b v.Os.zv_in_interrupt;
  w_int b v.Os.zv_idle_last_round;
  w_int b v.Os.zv_slice_start;
  w_ept_tags b v.Os.zv_tags

let r_frozen_vcpu r =
  let zv_dirs = r_list r r_int_pair in
  let zv_current_pid = r_int r in
  let zv_in_interrupt = r_bool r in
  let zv_idle_last_round = r_int r in
  let zv_slice_start = r_int r in
  let zv_tags = r_ept_tags r in
  {
    Os.zv_dirs;
    zv_current_pid;
    zv_in_interrupt;
    zv_idle_last_round;
    zv_slice_start;
    zv_tags;
  }

(* The physical pool splits across two sections: frame contents live in
   the content-keyed FRAM store (unique pages, digest-verified); the OS
   section stores each live frame as (frame, refcount, content index). *)
let w_phys ~content_id b (z : Phys.frozen) =
  w_int b z.Phys.z_next;
  w_list b w_int z.Phys.z_free_list;
  w_list b w_int (Array.to_list z.Phys.z_versions);
  w_list b
    (fun b (frame, refs, bytes) ->
      w_int b frame;
      w_int b refs;
      w_int b (content_id (Bytes.to_string bytes)))
    z.Phys.z_live

let r_phys ~content_of r =
  let z_next = r_int r in
  let z_free_list = r_list r r_int in
  let z_versions = Array.of_list (r_list r r_int) in
  let z_live =
    r_list r (fun r ->
        let frame = r_int r in
        let refs = r_int r in
        let idx = r_int r in
        (frame, refs, Bytes.of_string (content_of r idx)))
  in
  { Phys.z_next; z_free_list; z_versions; z_live }

let w_os ~content_id b (z : Os.frozen) =
  w_config b z.Os.z_config;
  w_engine b z.Os.z_engine;
  w_int b z.Os.z_cycles;
  w_int b z.Os.z_instrs;
  w_int b z.Os.z_round_no;
  w_int b z.Os.z_context_switches;
  w_int b z.Os.z_next_pid;
  w_int b z.Os.z_next_module_base;
  w_int b z.Os.z_data_epoch;
  w_int b z.Os.z_trap_gen;
  w_list b w_int_pair z.Os.z_ram;
  w_phys ~content_id b z.Os.z_phys;
  w_list b w_int_pair z.Os.z_master_pt;
  w_list b w_frozen_vcpu z.Os.z_vcpus;
  w_list b w_frozen_proc z.Os.z_procs;
  w_list b w_frozen_module z.Os.z_modules;
  w_list b w_frozen_timer z.Os.z_timers;
  w_list b w_int z.Os.z_traps;
  w_list b w_int z.Os.z_itimers;
  w_option b w_int z.Os.z_sleep_override

let r_os ~content_of r =
  let z_config = r_config r in
  let z_engine = r_engine r in
  let z_cycles = r_int r in
  let z_instrs = r_int r in
  let z_round_no = r_int r in
  let z_context_switches = r_int r in
  let z_next_pid = r_int r in
  let z_next_module_base = r_int r in
  let z_data_epoch = r_int r in
  let z_trap_gen = r_int r in
  let z_ram = r_list r r_int_pair in
  let z_phys = r_phys ~content_of r in
  let z_master_pt = r_list r r_int_pair in
  let z_vcpus = r_list r r_frozen_vcpu in
  let z_procs = r_list r r_frozen_proc in
  let z_modules = r_list r r_frozen_module in
  let z_timers = r_list r r_frozen_timer in
  let z_traps = r_list r r_int in
  let z_itimers = r_list r r_int in
  let z_sleep_override = r_option r r_int in
  {
    Os.z_config;
    z_engine;
    z_cycles;
    z_instrs;
    z_round_no;
    z_context_switches;
    z_next_pid;
    z_next_module_base;
    z_data_epoch;
    z_trap_gen;
    z_ram;
    z_phys;
    z_master_pt;
    z_vcpus;
    z_procs;
    z_modules;
    z_timers;
    z_traps;
    z_itimers;
    z_sleep_override;
  }

(* --- hypervisor / FACE-CHANGE / cursor / metrics --- *)

let w_hyp b (z : Hyp.frozen) =
  w_list b w_int_pair z.Hyp.zh_tables;
  w_list b (w_triple w_string w_int w_int) z.Hyp.zh_cache

let r_hyp r =
  let zh_tables = r_list r r_int_pair in
  let zh_cache = r_list r (r_triple r_string r_int r_int) in
  { Hyp.zh_tables; zh_cache }

let w_opts b (o : Facechange.opts) =
  w_bool b o.Facechange.switch_at_resume;
  w_bool b o.Facechange.same_view_opt;
  w_bool b o.Facechange.whole_function_load;
  w_bool b o.Facechange.instant_recovery;
  w_bool b o.Facechange.share_frames

let r_opts r =
  let switch_at_resume = r_bool r in
  let same_view_opt = r_bool r in
  let whole_function_load = r_bool r in
  let instant_recovery = r_bool r in
  let share_frames = r_bool r in
  {
    Facechange.switch_at_resume;
    same_view_opt;
    whole_function_load;
    instant_recovery;
    share_frames;
  }

let w_view b (z : View.frozen) =
  w_int b z.View.zv_index;
  w_string b z.View.zv_config;
  w_bool b z.View.zv_share;
  w_list b w_int_pair z.View.zv_tables;
  w_list b w_int_pair z.View.zv_page_frames;
  w_int b z.View.zv_loaded_bytes;
  w_int b z.View.zv_cow_breaks;
  w_bool b z.View.zv_destroyed

let r_view r =
  let zv_index = r_int r in
  let zv_config = r_string r in
  let zv_share = r_bool r in
  let zv_tables = r_list r r_int_pair in
  let zv_page_frames = r_list r r_int_pair in
  let zv_loaded_bytes = r_int r in
  let zv_cow_breaks = r_int r in
  let zv_destroyed = r_bool r in
  {
    View.zv_index;
    zv_config;
    zv_share;
    zv_tables;
    zv_page_frames;
    zv_loaded_bytes;
    zv_cow_breaks;
    zv_destroyed;
  }

let w_fc b (z : Facechange.frozen) =
  w_opts b z.Facechange.zf_opts;
  w_list b w_view z.Facechange.zf_views;
  w_list b (w_pair w_string w_int) z.Facechange.zf_bindings;
  w_int b z.Facechange.zf_next_index;
  w_list b w_int z.Facechange.zf_active;
  w_list b (fun b o -> w_option b w_int o) z.Facechange.zf_pending;
  w_int b z.Facechange.zf_retired_cow_breaks;
  w_option b w_gov_frozen z.Facechange.zf_governor;
  w_list b (w_pair w_string w_int) z.Facechange.zf_saved_bindings;
  w_string b z.Facechange.zf_log;
  w_int b z.Facechange.zf_log_dropped;
  w_int b z.Facechange.zf_log_cap;
  w_bool b z.Facechange.zf_enabled

let r_fc r =
  let zf_opts = r_opts r in
  let zf_views = r_list r r_view in
  let zf_bindings = r_list r (r_pair r_string r_int) in
  let zf_next_index = r_int r in
  let zf_active = r_list r r_int in
  let zf_pending = r_list r (fun r -> r_option r r_int) in
  let zf_retired_cow_breaks = r_int r in
  let zf_governor = r_option r r_gov_frozen in
  let zf_saved_bindings = r_list r (r_pair r_string r_int) in
  let zf_log = r_string r in
  let zf_log_dropped = r_int r in
  let zf_log_cap = r_int r in
  let zf_enabled = r_bool r in
  {
    Facechange.zf_opts;
    zf_views;
    zf_bindings;
    zf_next_index;
    zf_active;
    zf_pending;
    zf_retired_cow_breaks;
    zf_governor;
    zf_saved_bindings;
    zf_log;
    zf_log_dropped;
    zf_log_cap;
    zf_enabled;
  }

let w_cursor b (c : Injector.cursor) =
  w_int b c.Injector.cu_seed;
  w_list b w_fault_event c.Injector.cu_events;
  w_int b c.Injector.cu_position;
  w_list b w_fault_kind c.Injector.cu_queue;
  w_int b c.Injector.cu_miss_budget

let r_cursor r =
  let cu_seed = r_int r in
  let cu_events = r_list r r_fault_event in
  let cu_position = r_int r in
  let cu_queue = r_list r r_fault_kind in
  let cu_miss_budget = r_int r in
  { Injector.cu_seed; cu_events; cu_position; cu_queue; cu_miss_budget }

let w_metric b (e : Metrics.dump_entry) =
  w_string b e.Metrics.d_subsystem;
  w_string b e.Metrics.d_name;
  w_option b w_string e.Metrics.d_label;
  match e.Metrics.d_value with
  | Metrics.D_counter v ->
      w_tag b 0;
      w_int b v
  | Metrics.D_histogram { d_buckets; d_count; d_sum; d_max } ->
      w_tag b 1;
      w_list b w_int_pair d_buckets;
      w_int b d_count;
      w_int b d_sum;
      w_int b d_max

let r_metric r =
  let d_subsystem = r_string r in
  let d_name = r_string r in
  let d_label = r_option r r_string in
  let d_value =
    match r_tag r with
    | 0 -> Metrics.D_counter (r_int r)
    | 1 ->
        let d_buckets = r_list r r_int_pair in
        let d_count = r_int r in
        let d_sum = r_int r in
        let d_max = r_int r in
        Metrics.D_histogram { d_buckets; d_count; d_sum; d_max }
    | n -> fail r (Printf.sprintf "bad metric value tag %d" n)
  in
  { Metrics.d_subsystem; d_name; d_label; d_value }

(* ---------------- container format ---------------- *)

let magic = "FCSN"

(* 4: the OS section no longer carries version 3's divergent-page list.
   3: it carries one engine byte (reference or fast) in place of version
   2's tlb/sblocks/tagged flags and global generation.  2: it gained
   per-vCPU EPT tag state.  Older streams are rejected with the typed
   unsupported-version error, as always. *)
let version = 4

let encode t =
  (* content-keyed page store: unique page bytes, MD5-keyed, referenced
     by index from the OS section's live-frame records *)
  let contents = Hashtbl.create 256 in
  let content_rev = ref [] and content_count = ref 0 in
  let content_id page =
    match Hashtbl.find_opt contents page with
    | Some i -> i
    | None ->
        let i = !content_count in
        Hashtbl.replace contents page i;
        content_rev := page :: !content_rev;
        incr content_count;
        i
  in
  let sections = ref [] in
  let add_section tag payload = sections := (tag, payload) :: !sections in
  let render tag f =
    let b = Buffer.create 4096 in
    f b;
    add_section tag (Buffer.contents b)
  in
  render "META" (fun b -> w_list b (w_pair w_string w_string) t.s_meta);
  render "TABL" (fun b ->
      w_list b (fun b entries -> w_list b w_int_pair entries)
        (Array.to_list t.s_tables));
  (* the OS payload is rendered before FRAM so the content store is
     populated, but FRAM is placed first in the file so a streaming
     decoder meets contents before references *)
  let os_buf = Buffer.create 65536 in
  w_os ~content_id os_buf t.s_os;
  render "FRAM" (fun b ->
      w_list b
        (fun b page ->
          w_string b (Digest.string page);
          w_string b page)
        (List.rev !content_rev));
  add_section "OSST" (Buffer.contents os_buf);
  (match t.s_hyp with Some z -> render "HYPV" (fun b -> w_hyp b z) | None -> ());
  (match t.s_fc with Some z -> render "FCCR" (fun b -> w_fc b z) | None -> ());
  (match t.s_cursor with
  | Some c -> render "CURS" (fun b -> w_cursor b c)
  | None -> ());
  render "METR" (fun b -> w_list b w_metric t.s_metrics);
  let sections = List.rev !sections in
  let out = Buffer.create 262144 in
  Buffer.add_string out magic;
  let hdr = Bytes.create 8 in
  Bytes.set_int32_le hdr 0 (Int32.of_int version);
  Bytes.set_int32_le hdr 4 (Int32.of_int (List.length sections));
  Buffer.add_bytes out hdr;
  List.iter
    (fun (tag, payload) ->
      Buffer.add_string out tag;
      let pre = Bytes.create 12 in
      Bytes.set_int64_le pre 0 (Int64.of_int (String.length payload));
      Bytes.set_int32_le pre 8 (Int32.of_int (crc32 payload));
      Buffer.add_bytes out pre;
      Buffer.add_string out payload)
    sections;
  Buffer.contents out

(* Split the container into CRC-verified (tag, payload, abs_offset)
   records.  All offsets in errors are absolute file offsets. *)
let split_sections s =
  let len = String.length s in
  let err offset reason = Error { section = "header"; offset; reason } in
  if len < 12 then err len "truncated header (need magic + version + count)"
  else if String.sub s 0 4 <> magic then
    err 0
      (Printf.sprintf "bad magic %S (want %S) — not a facechange snapshot"
         (String.sub s 0 4) magic)
  else
    let ver = Int32.to_int (String.get_int32_le s 4) in
    if ver <> version then
      err 4
        (Printf.sprintf "unsupported format version %d (expect %d)" ver version)
    else
      let count = Int32.to_int (String.get_int32_le s 8) in
      if count < 0 || count > 64 then
        err 8 (Printf.sprintf "implausible section count %d" count)
      else
        let rec go acc pos remaining =
          if remaining = 0 then
            if pos = len then Ok (List.rev acc)
            else
              Error
                {
                  section = "trailer";
                  offset = pos;
                  reason = Printf.sprintf "%d trailing bytes after last section" (len - pos);
                }
          else if pos + 16 > len then
            Error
              {
                section = "header";
                offset = pos;
                reason = "truncated section header";
              }
          else
            let tag = String.sub s pos 4 in
            let plen = Int64.to_int (String.get_int64_le s (pos + 4)) in
            let crc = Int32.to_int (String.get_int32_le s (pos + 12)) land 0xFFFFFFFF in
            if plen < 0 || pos + 16 + plen > len then
              Error
                {
                  section = tag;
                  offset = pos + 4;
                  reason =
                    Printf.sprintf "truncated payload: length %d exceeds file" plen;
                }
            else
              let payload = String.sub s (pos + 16) plen in
              if crc32 payload <> crc then
                Error
                  {
                    section = tag;
                    offset = pos + 12;
                    reason =
                      Printf.sprintf "CRC mismatch (stored 0x%08x, computed 0x%08x)"
                        crc (crc32 payload);
                  }
              else go ((tag, payload, pos + 16) :: acc) (pos + 16 + plen) (remaining - 1)
        in
        go [] 12 count

let known_tags = [ "META"; "TABL"; "FRAM"; "OSST"; "HYPV"; "FCCR"; "CURS"; "METR" ]

let decode s =
  match split_sections s with
  | Error e -> Error e
  | Ok sections -> (
      let find tag =
        List.find_opt (fun (t', _, _) -> String.equal t' tag) sections
      in
      let parse tag f =
        match find tag with
        | None ->
            Error
              { section = tag; offset = 0; reason = "required section missing" }
        | Some (_, payload, base) -> (
            let r = { src = payload; pos = 0 } in
            match f r with
            | v ->
                if r.pos <> String.length payload then
                  Error
                    {
                      section = tag;
                      offset = base + r.pos;
                      reason =
                        Printf.sprintf "%d unconsumed payload bytes"
                          (String.length payload - r.pos);
                    }
                else Ok v
            | exception Decode_err (pos, reason) ->
                Error { section = tag; offset = base + pos; reason })
      in
      let parse_opt tag f =
        match find tag with
        | None -> Ok None
        | Some _ -> ( match parse tag f with Ok v -> Ok (Some v) | Error e -> Error e)
      in
      let ( let* ) = Result.bind in
      let* () =
        match
          List.find_opt (fun (t', _, _) -> not (List.mem t' known_tags)) sections
        with
        | Some (tag, _, base) ->
            Error
              {
                section = tag;
                offset = base - 16;
                reason = "unknown section tag (format drift?)";
              }
        | None -> Ok ()
      in
      let* s_meta = parse "META" (fun r -> r_list r (r_pair r_string r_string)) in
      let* tables =
        parse "TABL" (fun r -> r_list r (fun r -> r_list r r_int_pair))
      in
      let* contents =
        parse "FRAM" (fun r ->
            r_list r (fun r ->
                let digest = r_string r in
                let page = r_string r in
                if Digest.string page <> digest then
                  fail r "content digest mismatch (corrupt page record)";
                page))
      in
      let content_arr = Array.of_list contents in
      let content_of r idx =
        if idx < 0 || idx >= Array.length content_arr then
          fail r (Printf.sprintf "frame content index %d out of store" idx)
        else content_arr.(idx)
      in
      let* s_os = parse "OSST" (r_os ~content_of) in
      let* s_hyp = parse_opt "HYPV" r_hyp in
      let* s_fc = parse_opt "FCCR" r_fc in
      let* s_cursor = parse_opt "CURS" r_cursor in
      let* s_metrics = parse "METR" (fun r -> r_list r r_metric) in
      Ok
        {
          s_meta;
          s_tables = Array.of_list tables;
          s_os;
          s_hyp;
          s_fc;
          s_cursor;
          s_metrics;
        })

(* ---------------- files / description ---------------- *)

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode t))

let load path =
  match
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  with
  | s -> decode s
  | exception Sys_error e -> Error { section = "file"; offset = 0; reason = e }

let describe t =
  let b = Buffer.create 256 in
  let os = t.s_os in
  Buffer.add_string b
    (Printf.sprintf
       "facechange snapshot: %d vcpu(s), round %d, cycle %d, %d process(es)\n"
       (List.length os.Os.z_vcpus) os.Os.z_round_no os.Os.z_cycles
       (List.length os.Os.z_procs));
  Buffer.add_string b
    (Printf.sprintf
       "  engine: %s; %d live frame(s), %d EPT table(s)\n"
       (Os.engine_name os.Os.z_engine)
       (List.length os.Os.z_phys.Phys.z_live)
       (Array.length t.s_tables));
  (match t.s_fc with
  | Some zf ->
      Buffer.add_string b
        (Printf.sprintf "  facechange: %d view(s), %d binding(s), governor=%b\n"
           (List.length zf.Facechange.zf_views)
           (List.length zf.Facechange.zf_bindings)
           (zf.Facechange.zf_governor <> None))
  | None -> Buffer.add_string b "  facechange: absent\n");
  (match t.s_cursor with
  | Some c ->
      Buffer.add_string b
        (Printf.sprintf "  fault cursor: seed %d, %d event(s), position %d\n"
           c.Injector.cu_seed
           (List.length c.Injector.cu_events)
           c.Injector.cu_position)
  | None -> Buffer.add_string b "  fault cursor: absent\n");
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  meta %s = %s\n" k v))
    t.s_meta;
  Buffer.contents b
