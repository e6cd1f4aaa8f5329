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
  s_metrics : Metrics.sample list;
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

(* ---------------- codecs ---------------- *)

(* Each wire type is one codec: its writer and its reader side by side,
   so the two cannot disagree on a byte.  Records are assembled with
   [record] from one [field] per record field, joined by [let+]/[and+]
   and written and read in the order listed; variants with [variant]
   from one tag table. *)

exception Decode_err of int * string

type reader = { src : string; mutable pos : int }
type 'a codec = { write : Buffer.t -> 'a -> unit; read : reader -> 'a }

let fail r reason = raise (Decode_err (r.pos, reason))

(* A length is compared with the bytes that remain, never added to the
   position: a length near [max_int] must not overflow past the check. *)
let need r n =
  let remain = String.length r.src - r.pos in
  if n < 0 || n > remain then
    fail r (Printf.sprintf "truncated: need %d bytes, %d remain" n remain)

let int =
  {
    write = (fun b v -> Buffer.add_int64_le b (Int64.of_int v));
    read =
      (fun r ->
        need r 8;
        let v = Int64.to_int (String.get_int64_le r.src r.pos) in
        r.pos <- r.pos + 8;
        v);
  }

let byte =
  {
    write = (fun b v -> Buffer.add_char b (Char.chr (v land 0xff)));
    read =
      (fun r ->
        need r 1;
        let v = Char.code r.src.[r.pos] in
        r.pos <- r.pos + 1;
        v);
  }

let unit = { write = (fun _ () -> ()); read = (fun _ -> ()) }

let string =
  {
    write =
      (fun b s ->
        int.write b (String.length s);
        Buffer.add_string b s);
    read =
      (fun r ->
        let n = int.read r in
        if n < 0 then fail r (Printf.sprintf "negative string length %d" n);
        need r n;
        let s = String.sub r.src r.pos n in
        r.pos <- r.pos + n;
        s);
  }

let list c =
  {
    write =
      (fun b xs ->
        int.write b (List.length xs);
        List.iter (c.write b) xs);
    read =
      (fun r ->
        let n = int.read r in
        if n < 0 then fail r (Printf.sprintf "negative list length %d" n);
        List.init n (fun _ -> c.read r));
  }

let array c =
  let l = list c in
  { write = (fun b a -> l.write b (Array.to_list a)); read = (fun r -> Array.of_list (l.read r)) }

(* Record builder. *)
type ('r, 'a) fields = { put : Buffer.t -> 'r -> unit; get : reader -> 'a }

let field proj c = { put = (fun b r -> c.write b (proj r)); get = c.read }
let ( let+ ) f k = { put = f.put; get = (fun r -> k (f.get r)) }

let ( and+ ) f g =
  {
    put =
      (fun b r ->
        f.put b r;
        g.put b r);
    get =
      (fun r ->
        let x = f.get r in
        let y = g.get r in
        (x, y));
  }

let record f = { write = f.put; read = f.get }

(* Variant builder: one [case] per constructor — its tag byte, payload
   codec, constructor and projection; [constant] for a constructor
   without payload.  [what] names the tag in the decode error. *)
type 'a case = Case : int * 'p codec * ('p -> 'a) * ('a -> 'p option) -> 'a case

let case tag payload inj proj = Case (tag, payload, inj, proj)
let constant tag v = case tag unit (fun () -> v) (fun x -> if x = v then Some () else None)

let variant what cases =
  {
    write =
      (fun b v ->
        let rec go = function
          | [] -> invalid_arg (Printf.sprintf "Snapshot.encode: no %s for this value" what)
          | Case (tag, payload, _, proj) :: rest -> (
              match proj v with
              | Some p ->
                  byte.write b tag;
                  payload.write b p
              | None -> go rest)
        in
        go cases);
    read =
      (fun r ->
        let tag = byte.read r in
        match List.find_opt (fun (Case (t, _, _, _)) -> t = tag) cases with
        | Some (Case (_, payload, inj, _)) -> inj (payload.read r)
        | None -> fail r (Printf.sprintf "bad %s %d" what tag));
  }

let bool = variant "boolean byte" [ constant 0 false; constant 1 true ]
let option c = variant "option tag" [ constant 0 None; case 1 c Option.some Fun.id ]
let pair a b = record (let+ x = field fst a and+ y = field snd b in (x, y))

let triple a b c =
  record
    (let+ x = field (fun (x, _, _) -> x) a
     and+ y = field (fun (_, y, _) -> y) b
     and+ z = field (fun (_, _, z) -> z) c in
     (x, y, z))

let int_pair = pair int int

(* ---------------- domain codecs ---------------- *)

let clocksource =
  variant "clocksource tag"
    [ constant 0 Irq_paths.Acpi_pm; constant 1 Irq_paths.Kvmclock ]

let engine = variant "engine tag" [ constant 0 Os.Reference; constant 1 Os.Fast ]

let irq_source =
  variant "irq source tag"
    [
      case 0 clocksource (fun c -> Irq_paths.Timer c)
        (function Irq_paths.Timer c -> Some c | _ -> None);
      case 1 clocksource (fun c -> Irq_paths.Timer_itimer c)
        (function Irq_paths.Timer_itimer c -> Some c | _ -> None);
      constant 2 Irq_paths.Keyboard_console;
      constant 3 Irq_paths.Keyboard_evdev;
      constant 4 Irq_paths.Net_rx_tcp;
      constant 5 Irq_paths.Net_rx_udp;
      constant 6 Irq_paths.Net_rx_sniffed_tcp;
      constant 7 Irq_paths.Net_rx_sniffed_udp;
      constant 8 Irq_paths.Disk;
    ]

let action =
  variant "action tag"
    [
      case 0 string (fun s -> Action.Syscall s)
        (function Action.Syscall s -> Some s | _ -> None);
      case 1 int (fun n -> Action.Compute n)
        (function Action.Compute n -> Some n | _ -> None);
      case 2 int (fun n -> Action.Sleep n)
        (function Action.Sleep n -> Some n | _ -> None);
      constant 3 Action.Fault;
      constant 4 Action.Exit;
    ]

let run_state =
  variant "run_state tag"
    [
      constant 0 Process.Ready;
      case 1 int_pair
        (fun (yield_id, wake_round) -> Process.Blocked { yield_id; wake_round })
        (function
          | Process.Blocked { yield_id; wake_round } -> Some (yield_id, wake_round)
          | _ -> None);
      constant 2 Process.Exited;
    ]

let config =
  record
    (let+ clocksource = field (fun c -> c.Os.clocksource) clocksource
     and+ timer_period = field (fun c -> c.Os.timer_period) int
     and+ quantum = field (fun c -> c.Os.quantum) int
     and+ wake_delay = field (fun c -> c.Os.wake_delay) int
     and+ background_irqs =
       field (fun c -> c.Os.background_irqs) (list (pair irq_source int))
     in
     { Os.clocksource; timer_period; quantum; wake_delay; background_irqs })

let fault_kind =
  variant "fault kind tag"
    [
      case 0 int_pair
        (fun (frac, count) -> Fault.Spurious_ud2 { frac; count })
        (function Fault.Spurious_ud2 { frac; count } -> Some (frac, count) | _ -> None);
      case 1 int (fun frac -> Fault.Broken_rbp { frac })
        (function Fault.Broken_rbp { frac } -> Some frac | _ -> None);
      case 2 int (fun frac -> Fault.Cyclic_rbp { frac })
        (function Fault.Cyclic_rbp { frac } -> Some frac | _ -> None);
      case 3 int (fun frac -> Fault.Flip_view_byte { frac })
        (function Fault.Flip_view_byte { frac } -> Some frac | _ -> None);
      constant 4 Fault.Evict_frames;
      case 5 int (fun count -> Fault.Miss_breakpoints { count })
        (function Fault.Miss_breakpoints { count } -> Some count | _ -> None);
      constant 6 Fault.Truncated_config;
      constant 7 Fault.Overlapping_config;
    ]

let fault_event =
  record
    (let+ at_round = field (fun e -> e.Fault.at_round) int
     and+ kind = field (fun e -> e.Fault.kind) fault_kind in
     { Fault.at_round; kind })

let gov_state =
  variant "governor state tag"
    [
      constant 0 Governor.Narrow;
      constant 1 Governor.Throttled;
      constant 2 Governor.Degraded;
      constant 3 Governor.Quarantined;
    ]

let gov_policy =
  record
    (let+ window_cycles = field (fun p -> p.Governor.window_cycles) int
     and+ throttle_after = field (fun p -> p.Governor.throttle_after) int
     and+ storm_after = field (fun p -> p.Governor.storm_after) int
     and+ cooldown_cycles = field (fun p -> p.Governor.cooldown_cycles) int
     and+ quarantine_after = field (fun p -> p.Governor.quarantine_after) int
     and+ max_backtrace_depth = field (fun p -> p.Governor.max_backtrace_depth) int
     and+ on_unhandled =
       field
         (fun p -> p.Governor.on_unhandled)
         (variant "on_unhandled tag" [ constant 0 `Degrade; constant 1 `Die ])
     in
     {
       Governor.window_cycles;
       throttle_after;
       storm_after;
       cooldown_cycles;
       quarantine_after;
       max_backtrace_depth;
       on_unhandled;
     })

let gov_app =
  record
    (let+ za_st = field (fun a -> a.Governor.za_st) gov_state
     and+ za_recent = field (fun a -> a.Governor.za_recent) (list int)
     and+ za_degradations = field (fun a -> a.Governor.za_degradations) int
     and+ za_degraded_at = field (fun a -> a.Governor.za_degraded_at) int
     and+ za_unhandled = field (fun a -> a.Governor.za_unhandled) int in
     { Governor.za_st; za_recent; za_degradations; za_degraded_at; za_unhandled })

let gov_frozen =
  record
    (let+ zg_policy = field (fun z -> z.Governor.zg_policy) gov_policy
     and+ zg_apps = field (fun z -> z.Governor.zg_apps) (list (pair string gov_app)) in
     { Governor.zg_policy; zg_apps })

(* --- OS frozen --- *)

let frozen_proc =
  record
    (let+ zp_pid = field (fun p -> p.Os.zp_pid) int
     and+ zp_name = field (fun p -> p.Os.zp_name) string
     and+ zp_cpu = field (fun p -> p.Os.zp_cpu) int
     and+ zp_script = field (fun p -> p.Os.zp_script) (list action)
     and+ zp_state = field (fun p -> p.Os.zp_state) run_state
     and+ zp_saved_regs =
       field (fun p -> p.Os.zp_saved_regs) (option (triple int int int))
     and+ zp_saved_dispatch = field (fun p -> p.Os.zp_saved_dispatch) (list int)
     and+ zp_in_kernel = field (fun p -> p.Os.zp_in_kernel) bool
     and+ zp_syscall_count = field (fun p -> p.Os.zp_syscall_count) int
     and+ zp_last_scheduled_round =
       field (fun p -> p.Os.zp_last_scheduled_round) int
     in
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
     })

let frozen_module =
  record
    (let+ zm_name = field (fun m -> m.Os.zm_name) string
     and+ zm_hidden = field (fun m -> m.Os.zm_hidden) bool
     and+ zm_base = field (fun m -> m.Os.zm_base) int
     and+ zm_code = field (fun m -> m.Os.zm_code) string
     and+ zm_functions =
       field (fun m -> m.Os.zm_functions) (list (triple string int int))
     in
     { Os.zm_name; zm_hidden; zm_base; zm_code; zm_functions })

let frozen_timer =
  record
    (let+ zt_source = field (fun t -> t.Os.zt_source) irq_source
     and+ zt_period = field (fun t -> t.Os.zt_period) int
     and+ zt_next_at = field (fun t -> t.Os.zt_next_at) int in
     { Os.zt_source; zt_period; zt_next_at })

let frozen_vcpu =
  record
    (let+ zv_dirs = field (fun v -> v.Os.zv_dirs) (list int_pair)
     and+ zv_current_pid = field (fun v -> v.Os.zv_current_pid) int
     and+ zv_idle_last_round = field (fun v -> v.Os.zv_idle_last_round) int
     and+ zv_slice_start = field (fun v -> v.Os.zv_slice_start) int
     and+ zv_view = field (fun v -> v.Os.zv_view) int in
     {
       Os.zv_dirs;
       zv_current_pid;
       zv_idle_last_round;
       zv_slice_start;
       zv_view;
     })

(* The physical pool splits across two sections: frame contents live in
   the content-keyed FRAM store (unique pages in first-use order, each
   with its MD5); the OS section stores each live frame as (frame,
   refcount, content index).  A page's MD5 travels with it both ways: a
   digest the pool already knows is written without hashing, and the
   one the decoder verifies is handed to the restored pool. *)
type store = {
  ids : (string, int) Hashtbl.t;
  pages : (int, string * Digest.t option) Hashtbl.t;
}

let store () = { ids = Hashtbl.create 256; pages = Hashtbl.create 256 }

let page store =
  {
    write =
      (fun b (bytes, digest) ->
        let page = Bytes.to_string bytes in
        match Hashtbl.find_opt store.ids page with
        | Some id -> int.write b id
        | None ->
            let id = Hashtbl.length store.pages in
            Hashtbl.replace store.ids page id;
            Hashtbl.replace store.pages id (page, digest);
            int.write b id);
    read =
      (fun r ->
        let id = int.read r in
        match Hashtbl.find_opt store.pages id with
        | Some (page, digest) -> (Bytes.of_string page, digest)
        | None -> fail r (Printf.sprintf "frame content index %d out of store" id));
  }

let fram_page =
  {
    write =
      (fun b (page, digest) ->
        string.write b
          (match digest with Some d -> d | None -> Digest.string page);
        string.write b page);
    read =
      (fun r ->
        let digest = string.read r in
        let page = string.read r in
        if Digest.string page <> digest then
          fail r "content digest mismatch (corrupt page record)";
        (page, Some digest));
  }

let live_frame store =
  record
    (let+ zl_frame = field (fun l -> l.Phys.zl_frame) int
     and+ zl_refcount = field (fun l -> l.Phys.zl_refcount) int
     and+ zl_bytes, zl_digest =
       field (fun l -> (l.Phys.zl_bytes, l.Phys.zl_digest)) (page store)
     in
     { Phys.zl_frame; zl_refcount; zl_bytes; zl_digest })

let phys store =
  record
    (let+ z_next = field (fun z -> z.Phys.z_next) int
     and+ z_free_list = field (fun z -> z.Phys.z_free_list) (list int)
     and+ z_versions = field (fun z -> z.Phys.z_versions) (array int)
     and+ z_live = field (fun z -> z.Phys.z_live) (list (live_frame store)) in
     { Phys.z_next; z_free_list; z_versions; z_live })

let os store =
  record
    (let+ z_config = field (fun z -> z.Os.z_config) config
     and+ z_engine = field (fun z -> z.Os.z_engine) engine
     and+ z_cycles = field (fun z -> z.Os.z_cycles) int
     and+ z_instrs = field (fun z -> z.Os.z_instrs) int
     and+ z_round_no = field (fun z -> z.Os.z_round_no) int
     and+ z_context_switches = field (fun z -> z.Os.z_context_switches) int
     and+ z_next_pid = field (fun z -> z.Os.z_next_pid) int
     and+ z_next_module_base = field (fun z -> z.Os.z_next_module_base) int
     and+ z_next_view = field (fun z -> z.Os.z_next_view) int
     and+ z_ram = field (fun z -> z.Os.z_ram) (list int_pair)
     and+ z_phys = field (fun z -> z.Os.z_phys) (phys store)
     and+ z_vcpus = field (fun z -> z.Os.z_vcpus) (list frozen_vcpu)
     and+ z_procs = field (fun z -> z.Os.z_procs) (list frozen_proc)
     and+ z_modules = field (fun z -> z.Os.z_modules) (list frozen_module)
     and+ z_timers = field (fun z -> z.Os.z_timers) (list frozen_timer)
     and+ z_traps = field (fun z -> z.Os.z_traps) (list int)
     and+ z_itimers = field (fun z -> z.Os.z_itimers) (list int) in
     {
       Os.z_config;
       z_engine;
       z_cycles;
       z_instrs;
       z_round_no;
       z_context_switches;
       z_next_pid;
       z_next_module_base;
       z_next_view;
       z_ram;
       z_phys;
       z_vcpus;
       z_procs;
       z_modules;
       z_timers;
       z_traps;
       z_itimers;
     })

(* --- hypervisor / FACE-CHANGE / cursor / metrics --- *)

let hyp =
  record
    (let+ zh_tables = field (fun z -> z.Hyp.zh_tables) (list int_pair)
     and+ zh_cache = field (fun z -> z.Hyp.zh_cache) (list (triple string int int)) in
     { Hyp.zh_tables; zh_cache })

let opts =
  record
    (let+ switch_at_resume = field (fun o -> o.Facechange.switch_at_resume) bool
     and+ same_view_opt = field (fun o -> o.Facechange.same_view_opt) bool
     and+ whole_function_load = field (fun o -> o.Facechange.whole_function_load) bool
     and+ instant_recovery = field (fun o -> o.Facechange.instant_recovery) bool
     and+ share_frames = field (fun o -> o.Facechange.share_frames) bool in
     {
       Facechange.switch_at_resume;
       same_view_opt;
       whole_function_load;
       instant_recovery;
       share_frames;
     })

let view =
  record
    (let+ zv_index = field (fun z -> z.View.zv_index) int
     and+ zv_config = field (fun z -> z.View.zv_config) string
     and+ zv_share = field (fun z -> z.View.zv_share) bool
     and+ zv_tables = field (fun z -> z.View.zv_tables) (list int_pair)
     and+ zv_page_frames = field (fun z -> z.View.zv_page_frames) (list int_pair)
     and+ zv_loaded_bytes = field (fun z -> z.View.zv_loaded_bytes) int
     and+ zv_cow_breaks = field (fun z -> z.View.zv_cow_breaks) int
     and+ zv_destroyed = field (fun z -> z.View.zv_destroyed) bool in
     {
       View.zv_index;
       zv_config;
       zv_share;
       zv_tables;
       zv_page_frames;
       zv_loaded_bytes;
       zv_cow_breaks;
       zv_destroyed;
     })

let fc =
  record
    (let+ zf_opts = field (fun z -> z.Facechange.zf_opts) opts
     and+ zf_views = field (fun z -> z.Facechange.zf_views) (list view)
     and+ zf_bindings =
       field (fun z -> z.Facechange.zf_bindings) (list (pair string int))
     and+ zf_active = field (fun z -> z.Facechange.zf_active) (list int)
     and+ zf_pending = field (fun z -> z.Facechange.zf_pending) (list (option int))
     and+ zf_retired_cow_breaks =
       field (fun z -> z.Facechange.zf_retired_cow_breaks) int
     and+ zf_governor = field (fun z -> z.Facechange.zf_governor) (option gov_frozen)
     and+ zf_saved_bindings =
       field (fun z -> z.Facechange.zf_saved_bindings) (list (pair string int))
     and+ zf_log = field (fun z -> z.Facechange.zf_log) string
     and+ zf_log_dropped = field (fun z -> z.Facechange.zf_log_dropped) int
     and+ zf_log_cap = field (fun z -> z.Facechange.zf_log_cap) int
     and+ zf_enabled = field (fun z -> z.Facechange.zf_enabled) bool in
     {
       Facechange.zf_opts;
       zf_views;
       zf_bindings;
       zf_active;
       zf_pending;
       zf_retired_cow_breaks;
       zf_governor;
       zf_saved_bindings;
       zf_log;
       zf_log_dropped;
       zf_log_cap;
       zf_enabled;
     })

let cursor =
  record
    (let+ cu_seed = field (fun c -> c.Injector.cu_seed) int
     and+ cu_events = field (fun c -> c.Injector.cu_events) (list fault_event)
     and+ cu_position = field (fun c -> c.Injector.cu_position) int
     and+ cu_queue = field (fun c -> c.Injector.cu_queue) (list fault_kind)
     and+ cu_miss_budget = field (fun c -> c.Injector.cu_miss_budget) int in
     { Injector.cu_seed; cu_events; cu_position; cu_queue; cu_miss_budget })

(* Gauges are never dumped ({!Metrics.dump}), so they have no tag. *)
let histogram =
  record
    (let+ h_buckets = field (fun h -> h.Metrics.h_buckets) (list int_pair)
     and+ h_count = field (fun h -> h.Metrics.h_count) int
     and+ h_sum = field (fun h -> h.Metrics.h_sum) int
     and+ h_max = field (fun h -> h.Metrics.h_max) int in
     { Metrics.h_count; h_sum; h_max; h_buckets })

let metric =
  record
    (let+ subsystem = field (fun s -> s.Metrics.subsystem) string
     and+ name = field (fun s -> s.Metrics.name) string
     and+ label = field (fun s -> s.Metrics.label) (option string)
     and+ value =
       field
         (fun s -> s.Metrics.value)
         (variant "metric value tag"
            [
              case 0 int (fun v -> Metrics.Counter v)
                (function Metrics.Counter v -> Some v | _ -> None);
              case 1 histogram (fun h -> Metrics.Histogram h)
                (function Metrics.Histogram h -> Some h | _ -> None);
            ])
     in
     { Metrics.subsystem; name; label; value })

(* ---------------- container format ---------------- *)

let magic = "FCSN"

(* 6: each vCPU carries its active view id in place of version 5's tag
   state (era, flush count, per-view generations), the OS section the
   next view id in place of the data epoch, and the FACE-CHANGE section
   no next view index.  5: the OS section no longer carries page tables
   (the master table and each process's), the trap generation, the
   sleep override or each vCPU's in-interrupt flag.  4: nor version 3's
   divergent-page list.
   3: it carries one engine byte (reference or fast) in place of version
   2's tlb/sblocks/tagged flags and global generation.  2: it gained
   per-vCPU EPT tag state.  Older streams are rejected with the typed
   unsupported-version error, as always. *)
let version = 6

let meta_codec = list (pair string string)
let tables_codec = array (list int_pair)
let metrics_codec = list metric

let encode t =
  let store = store () in
  let sections = ref [] in
  let render tag c v =
    let b = Buffer.create 4096 in
    c.write b v;
    sections := (tag, Buffer.contents b) :: !sections
  in
  render "META" meta_codec t.s_meta;
  render "TABL" tables_codec t.s_tables;
  (* the OS payload is rendered before FRAM so the content store is
     populated, but FRAM is placed first in the file so a streaming
     decoder meets contents before references *)
  let os_buf = Buffer.create 65536 in
  (os store).write os_buf t.s_os;
  render "FRAM" (list fram_page)
    (List.init (Hashtbl.length store.pages) (Hashtbl.find store.pages));
  sections := ("OSST", Buffer.contents os_buf) :: !sections;
  Option.iter (render "HYPV" hyp) t.s_hyp;
  Option.iter (render "FCCR" fc) t.s_fc;
  Option.iter (render "CURS" cursor) t.s_cursor;
  render "METR" metrics_codec t.s_metrics;
  let sections = List.rev !sections in
  let out = Buffer.create 262144 in
  Buffer.add_string out magic;
  Buffer.add_int32_le out (Int32.of_int version);
  Buffer.add_int32_le out (Int32.of_int (List.length sections));
  List.iter
    (fun (tag, payload) ->
      Buffer.add_string out tag;
      Buffer.add_int64_le out (Int64.of_int (String.length payload));
      Buffer.add_int32_le out (Int32.of_int (crc32 payload));
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
            (* against the bytes that remain: [pos + 16 + plen] overflows
               for a length near [max_int] *)
            if plen < 0 || plen > len - pos - 16 then
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
      let parse tag c =
        match find tag with
        | None ->
            Error
              { section = tag; offset = 0; reason = "required section missing" }
        | Some (_, payload, base) -> (
            let r = { src = payload; pos = 0 } in
            match c.read r with
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
      let parse_opt tag c =
        match find tag with
        | None -> Ok None
        | Some _ -> Result.map Option.some (parse tag c)
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
      let* s_meta = parse "META" meta_codec in
      let* s_tables = parse "TABL" tables_codec in
      let* pages = parse "FRAM" (list fram_page) in
      let store = store () in
      List.iteri (Hashtbl.replace store.pages) pages;
      let* s_os = parse "OSST" (os store) in
      let* s_hyp = parse_opt "HYPV" hyp in
      let* s_fc = parse_opt "FCCR" fc in
      let* s_cursor = parse_opt "CURS" cursor in
      let* s_metrics = parse "METR" metrics_codec in
      Ok { s_meta; s_tables; s_os; s_hyp; s_fc; s_cursor; s_metrics })

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
