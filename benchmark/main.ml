(* The repository benchmark: four seeded, closed-loop workloads driven
   through the library's public API and timed from outside, layer by
   layer.  README.md holds the metric dictionary and the reasons behind
   each workload.

     main.exe --workload ub-views --seed 1 --seconds 20 --trace 0
     main.exe --smoke     every workload at a small size, both modes
     main.exe --bless     rewrite digests.json for seeds 1 and 2

   One invocation runs one workload, so its set-up time and peak RSS
   belong to that workload.  It builds the kernel image and the profiles
   several times (set-up, reported as the median), runs one warm-up pass,
   then repeats the same pass until [--seconds] have elapsed.  A pass is a
   fixed amount of work — every unit of the workload once — and timings
   are medians over the repetitions, each at nominal host speed (see
   [reference] below).  The guest engine is whatever
   [Os.create] gives by default, so a later change to that default is
   measured as users see it.

   With [--trace 1] passes alternate untraced and traced.  A traced pass
   subscribes to every guest's trace sink and stamps host time on the
   span events the library already emits, which splits [Os.run] into
   per-layer self times; the untraced passes are the baseline for the
   tracing overhead.  Stdout ends with one JSON line: correct, attempted,
   failed, and the end-to-end (trace 0) or per-layer (trace 1) metrics
   named in BENCHMARK.json. *)

module Image = Fc_kernel.Image
module Profiles = Fc_benchkit.Profiles
module Unixbench = Fc_benchkit.Unixbench
module Httperf = Fc_benchkit.Httperf
module Chaos = Fc_benchkit.Chaos
module Os = Fc_machine.Os
module Process = Fc_machine.Process
module Action = Fc_machine.Action
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Stats = Fc_core.Stats
module App = Fc_apps.App
module Frand = Fc_faults.Frand
module Fault = Fc_faults.Fault
module Injector = Fc_faults.Injector
module HFleet = Fc_host.Fleet
module Frame_cache = Fc_mem.Frame_cache
module Metrics = Fc_obs.Metrics
module Trace = Fc_obs.Trace
module Event = Fc_obs.Event
module J = Fc_obs.Jsonx

let now = Unix.gettimeofday
let epoch = now ()
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* On a shared machine the host's speed drifts in phases that last from
   seconds to minutes and slow every timing by up to 1.7x (README.md,
   "Host speed").  A fixed piece of work that shares no code with the
   library is timed before and after every timed stretch, on as many
   domains as the stretch runs, and each timing is reported at the host
   speed where that work takes [reference_s]: about its time on a 2-vCPU
   host nobody else loads.  Its allocations die young, so the live heap
   of the code under test does not change its cost. *)
let reference_s = 0.03

let reference_table = Array.init (1 lsl 18) (fun i -> (i * 40503) land ((1 lsl 18) - 1))

let reference_work () =
  let acc = ref 0 in
  for i = 1 to 600_000 do
    acc := List.fold_left ( + ) !acc (List.init 8 (fun k -> k lxor i));
    acc := !acc + Array.unsafe_get reference_table (!acc land ((1 lsl 18) - 1))
  done;
  ignore (Sys.opaque_identity !acc)

(* A fleet pass keeps both cores busy, and a host that takes one of them
   away slows it far more than it slows one domain. *)
let reference ~domains =
  let pool = Fc_host.Pool.create ~domains () in
  let t0 = now () in
  Fc_host.Pool.iter pool domains (fun _ -> reference_work ());
  now () -. t0

(* The host's speed over a stretch bracketed by two reference timings:
   1 at the nominal speed, below 1 when the host is slower. *)
let speed ~before ~after = reference_s /. ((before +. after) /. 2.)

(* ------------------------------------------------------------------ *)
(* Per-guest ledger: bracket times and traced self times               *)
(* ------------------------------------------------------------------ *)

(* Inside [Os.run] the innermost open span pays for the host time since
   the previous span event; with no span open the time is the
   scheduler's.  [view_build] spans only open inside [load_view], whose
   bracket already times them. *)
let buckets = [| "run_slice"; "exit_handling"; "backtrace"; "recovery"; "sched" |]
let engine = 0 and exit_handling = 1 and backtrace = 2 and recovery = 3 and sched = 4

let bucket_of label =
  let rec find i =
    if i = sched || buckets.(i) = label then i else find (i + 1)
  in
  find 0

(* Chrome trace events kept per guest of the first traced pass: enough to
   inspect a pass in Perfetto without writing megabytes per run. *)
let chrome_cap = 1000

type ledger = {
  l_unit : int;  (* Chrome tid *)
  l_domain : int;  (* Chrome pid *)
  mutable boot : float;
  mutable attach : float;
  mutable view_build : float;
  mutable run : float;
  mutable total : float;  (* the guest's whole job, boot to digest *)
  self : float array;  (* per bucket, traced passes only *)
  mutable exits : float list;  (* inclusive exit_handling durations *)
  mutable stack : (int * float) list;  (* open spans: bucket, start *)
  mutable in_run : bool;
  mutable mark : float;
  mutable chrome : J.t list;
  mutable chrome_left : int;
}

let ledger ~record ~unit ~domain =
  {
    l_unit = unit;
    l_domain = domain;
    boot = 0.;
    attach = 0.;
    view_build = 0.;
    run = 0.;
    total = 0.;
    self = Array.make (Array.length buckets) 0.;
    exits = [];
    stack = [];
    in_run = false;
    mark = 0.;
    chrome = [];
    chrome_left = (if record then chrome_cap else 0);
  }

let chrome l ph name t fields =
  if l.chrome_left > 0 then begin
    l.chrome_left <- l.chrome_left - 1;
    l.chrome <-
      J.Obj
        ([
           ("ph", J.String ph); ("name", J.String name);
           ("ts", J.Float ((t -. epoch) *. 1e6)); ("pid", J.Int l.l_domain);
           ("tid", J.Int l.l_unit);
         ]
        @ fields)
      :: l.chrome
  end

let charge l t =
  if l.in_run then begin
    let b = match l.stack with (b, _) :: _ -> b | [] -> sched in
    l.self.(b) <- l.self.(b) +. (t -. l.mark);
    l.mark <- t
  end

let on_record l (r : Trace.record) =
  match r.Trace.event with
  | Event.Span_begin { sid; parent; span; _ } ->
      let t = now () in
      charge l t;
      l.stack <- (bucket_of span, t) :: l.stack;
      chrome l "B" span t
        [ ("args", J.Obj [ ("sid", J.Int sid); ("parent", J.Int parent) ]) ]
  | Event.Span_end { span; _ } ->
      (* ends arrive properly nested: Span closes children first *)
      let t = now () in
      charge l t;
      (match l.stack with
      | (b, t0) :: rest ->
          if b = exit_handling then l.exits <- (t -. t0) :: l.exits;
          l.stack <- rest
      | [] -> ());
      chrome l "E" span t []
  | _ -> ()

let subscribe l os = Trace.subscribe (Fc_obs.Obs.trace (Os.obs os)) (on_record l)

let bracket l name f =
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  chrome l "X" name t0 [ ("dur", J.Float ((t1 -. t0) *. 1e6)) ];
  (x, t1 -. t0)

let boot l f =
  let os, dt = bracket l "boot" f in
  l.boot <- l.boot +. dt;
  os

let attach l os ?governor () =
  let fc, dt =
    bracket l "attach" (fun () -> Facechange.enable ?governor (Hyp.attach os))
  in
  l.attach <- l.attach +. dt;
  fc

let load_views l fc configs =
  let (), dt =
    bracket l "load_view" (fun () ->
        List.iter (fun c -> ignore (Facechange.load_view fc c : int)) configs)
  in
  l.view_build <- l.view_build +. dt

let run_os l f =
  let t0 = now () in
  l.mark <- t0;
  l.in_run <- true;
  let finish () =
    let t1 = now () in
    charge l t1;
    l.in_run <- false;
    l.run <- l.run +. (t1 -. t0);
    chrome l "X" "os_run" t0 [ ("dur", J.Float ((t1 -. t0) *. 1e6)) ]
  in
  Fun.protect ~finally:finish f

(* ------------------------------------------------------------------ *)
(* One guest's outcome                                                 *)
(* ------------------------------------------------------------------ *)

(* Registry counters and gauges read at the end of every guest.  Free to
   collect, so both modes carry them. *)
let registry_keys =
  [
    "tlb.i_hits"; "tlb.i_misses"; "tlb.d_hits"; "tlb.d_misses";
    "tlb.flushes{view_switch}"; "tlb.flushes{cow}"; "tlb.flushes{growth}";
    "tlb.flushes{explicit}"; "sb.hits"; "sb.blocks_built"; "sb.invalidations";
    "sb.restamps"; "hyp.breakpoint_exits"; "hyp.invalid_opcode_exits";
    "hyp.cycles_charged"; "fc.view_switches"; "fc.switches_skipped";
    "fc.switches_deferred"; "fc.recoveries"; "fc.recovered_bytes";
    "fc.degradations"; "fc.quarantines"; "fc.view_pages"; "cache.hits";
    "cache.misses"; "faults.injected"; "mem.live_frames";
  ]

type guest = {
  g_ledger : ledger;
  g_latencies : float list;  (* host ms per unit *)
  g_units : int;
  g_failure : string option;  (* fails every unit of the guest *)
  g_det : (string * int) list;  (* engine-invariant: the digest's input *)
  g_counts : (string * int) list;  (* registry_keys, in order *)
  g_minor_words : float;
}

let finish_guest l ~t0 ~w0 ?fc ?(latencies = []) ~units ~failure os =
  let m = Fc_obs.Obs.metrics (Os.obs os) in
  let stats = Option.map Stats.capture fc in
  let failure =
    match (failure, stats) with
    | None, Some s when not (Stats.attribution_ok s) ->
        Some "per-app attribution does not sum to the globals"
    | f, _ -> f
  in
  let det =
    ("instructions", Os.instructions os)
    ::
    (match stats with
    | Some s -> Stats.fields s
    | None ->
        [
          ("guest_cycles", Os.cycles os); ("rounds", Os.round os);
          ("context_switches", Os.context_switches os);
        ])
  in
  l.total <- now () -. t0;
  {
    g_ledger = l;
    g_latencies =
      (if latencies = [] then List.init units (fun _ -> l.total *. 1e3)
       else latencies);
    g_units = units;
    g_failure = failure;
    g_det = det;
    g_counts =
      List.map
        (fun k -> (k, Option.value (Metrics.find m k) ~default:0))
        registry_keys;
    g_minor_words = Gc.minor_words () -. w0;
  }

(* Content keys of a guest's resident view frames: the cross-guest dedup
   unit of Fc_host.Fleet. *)
let frame_keys fc = Frame_cache.resident_keys (Hyp.frame_cache (Facechange.hyp fc))

let guarded f =
  match f () with
  | failure -> failure
  | exception Os.Guest_panic m -> Some ("panic: " ^ m)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type size = {
  ub_subtests : Unixbench.subtest list;  (* the units of a ub pass *)
  http_guests : int;
  http_requests : int;  (* per pass, over all guests *)
  fleet_guests : int;  (* the units of a fleet pass *)
}

(* About one to two host seconds per pass on a 2-core host. *)
let full =
  { ub_subtests = Unixbench.subtests; http_guests = 2; http_requests = 200; fleet_guests = 40 }

(* The smoke test's size: the cheapest subtest, a few requests, a few guests. *)
let small =
  {
    ub_subtests = [ List.nth Unixbench.subtests (List.length Unixbench.subtests - 1) ];
    http_guests = 1;
    http_requests = 20;
    fleet_guests = 4;
  }

type inputs =
  | Ub of { views : bool; units : (Unixbench.subtest * string list) list }
      (* each subtest with the apps whose views and residents it runs *)
  | Httperf of int list  (* requests per guest *)
  | Fleet of (string * Fault.plan) list  (* app and fault plan per guest *)

let workloads = [ "ub-views"; "ub-bare"; "httperf"; "fleet" ]

(* Fig. 6 loads the Table I views but not gzip, which is not a
   long-running application. *)
let ub_apps = List.filter (fun a -> a <> "gzip") App.names

(* The chaos pool of Fc_benchkit.Fleet: varied syscall mixes and
   interrupt environments, none of the heaviest scripts.  Guests take the
   apps in turn, so every seed runs the same mix and the seed moves only
   the fault plans; a seed-drawn mix changes a pass's host time by ~15%. *)
let fleet_apps = [ "top"; "apache"; "gvim"; "tcpdump"; "bash"; "gzip"; "vsftpd"; "eog" ]

(* Everything a pass runs is drawn here, from the seed alone. *)
let inputs_of size ~seed = function
  | ("ub-views" | "ub-bare") as w ->
      (* every subtest guest draws its own pair: views differ in size, so
         one pair for the whole pass would move its time with the seed *)
      let pair i =
        let r = Frand.create (Frand.mix seed i) in
        let first = Frand.pick r ub_apps in
        [ first; Frand.pick r (List.filter (( <> ) first) ub_apps) ]
      in
      Ub { views = w = "ub-views"; units = List.mapi (fun i st -> (st, pair i)) size.ub_subtests }
  | "httperf" ->
      let r = Frand.create seed in
      let raw = List.init size.http_guests (fun _ -> 50 + Frand.int r 101) in
      let total = List.fold_left ( + ) 0 raw in
      (* rescale to the pass's request count; the last guest takes the
         rounding remainder *)
      let scaled = List.map (fun b -> b * size.http_requests / total) raw in
      let short = size.http_requests - List.fold_left ( + ) 0 scaled in
      Httperf (List.mapi (fun i b -> if i = size.http_guests - 1 then b + short else b) scaled)
  | "fleet" ->
      Fleet
        (List.init size.fleet_guests (fun i ->
             let gseed = Frand.mix seed i in
             let r = Frand.create gseed in
             let app = List.nth fleet_apps (i mod List.length fleet_apps) in
             let n = 3 + Frand.int r 5 in
             let plan = Fault.gen ~seed:gseed ~rounds:100 ~n in
             (* a flipped view byte can leave a governed guest
                unrecoverable (one guest in 480 over seeds 1-12), and no
                unit of a workload may fail *)
             let recoverable e =
               match e.Fault.kind with Fault.Flip_view_byte _ -> false | _ -> true
             in
             (app, { plan with Fault.faults = List.filter recoverable plan.Fault.faults })))
  | w -> invalid_arg ("unknown workload " ^ w)

let ub_guest profiles ~views ~traced ~record i ((st : Unixbench.subtest), apps) =
  let l = ledger ~record ~unit:i ~domain:0 in
  let t0 = now () and w0 = Gc.minor_words () in
  let os = boot l (fun () -> Os.create ~config:Unixbench.bench_config (Profiles.image profiles)) in
  if traced then subscribe l os;
  let fc =
    if not views then None
    else begin
      let fc = attach l os () in
      load_views l fc (List.map (Profiles.config_of profiles) apps);
      Some fc
    end
  in
  let failure =
    guarded (fun () ->
        let residents =
          List.map (fun name -> Os.spawn os ~name Unixbench.resident_script) apps
        in
        (* the residents settle into their sleep pattern first, as in Fig. 6 *)
        run_os l (fun () ->
            Os.run ~until:(fun _ -> not (List.exists Process.is_ready residents)) os);
        let bench = List.map (fun (name, s) -> Os.spawn os ~name s) st.Unixbench.procs in
        run_os l (fun () -> Os.run ~until:(fun _ -> List.for_all Process.is_exited bench) os);
        if List.for_all Process.is_exited bench then None
        else Some "benchmark processes did not exit")
  in
  (finish_guest l ~t0 ~w0 ?fc ~units:1 ~failure os, Option.fold fc ~none:[] ~some:frame_keys)

let apache_setup =
  [
    Action.Syscall "socket:tcp"; Action.Syscall "setsockopt:tcp";
    Action.Syscall "bind:tcp"; Action.Syscall "listen:tcp";
    Action.Syscall "epoll_create"; Action.Syscall "epoll_ctl";
  ]

(* Syscalls in one request of Httperf.request_actions. *)
let request_syscalls =
  List.length
    (List.filter (function Action.Syscall _ -> true | _ -> false) Httperf.request_actions)

let httperf_guest profiles ~traced ~record i requests =
  let l = ledger ~record ~unit:i ~domain:0 in
  let t0 = now () and w0 = Gc.minor_words () in
  let app = App.find_exn "apache" in
  let config = { (App.os_config app) with Os.wake_delay = 2 } in
  let os = boot l (fun () -> Os.create ~config (Profiles.image profiles)) in
  if traced then subscribe l os;
  let fc = attach l os () in
  load_views l fc [ Profiles.config_of profiles "apache" ];
  let latencies = ref [] and served = ref 0 in
  let failure =
    guarded (fun () ->
        let p =
          Os.spawn os ~name:"apache"
            (apache_setup @ Action.repeat requests Httperf.request_actions @ [ Action.Exit ])
        in
        let last = ref (now ()) in
        let due k = List.length apache_setup + (k * request_syscalls) in
        (* a pure observer: stamps each request as its last syscall retires *)
        let stamp _ =
          while !served < requests && p.Process.syscall_count >= due (!served + 1) do
            let t = now () in
            latencies := (t -. !last) *. 1e3 :: !latencies;
            last := t;
            incr served
          done;
          false
        in
        run_os l (fun () -> Os.run ~until:stamp os);
        ignore (stamp os : bool);
        if !served = requests && Process.is_exited p then None
        else Some (Printf.sprintf "served %d of %d requests" !served requests))
  in
  (finish_guest l ~t0 ~w0 ~fc ~latencies:!latencies ~units:requests ~failure os, frame_keys fc)

(* Fc_benchkit.Fleet.run_guest on the default engine: one profiled app
   under its enforced view, a full-view companion, a governed fault plan. *)
let fleet_guest profiles ~traced ~record ~domains i (name, plan) =
  let l = ledger ~record ~unit:i ~domain:(i mod domains) in
  let t0 = now () and w0 = Gc.minor_words () in
  let app = App.find_exn name in
  let os = boot l (fun () -> Os.create ~config:(App.os_config app) (Profiles.image profiles)) in
  if traced then subscribe l os;
  let fc = attach l os ~governor:Chaos.chaos_policy () in
  load_views l fc [ Profiles.config_of profiles name ];
  let (_ : Process.t) = Os.spawn os ~name (app.App.script 3) in
  let companion = App.find_exn "top" in
  let (_ : Process.t) = Os.spawn os ~name:"fleet-companion" (companion.App.script 2) in
  let inj = Injector.arm ~os ~hyp:(Facechange.hyp fc) ~fc plan in
  let outcome =
    match run_os l (fun () -> Os.run ~max_rounds:12_000 os) with
    | () -> "ok"
    | exception Os.Guest_panic "scheduler round budget exhausted" -> "wedged"
    | exception Os.Guest_panic m -> "panic: " ^ m
  in
  Injector.disarm inj;
  let g =
    finish_guest l ~t0 ~w0 ~fc ~units:1
      ~failure:(if outcome = "ok" then None else Some outcome)
      os
  in
  let host =
    HFleet.guest ~index:i ~app:name ~outcome ~stats:(Stats.capture fc)
      ~instructions:(Os.instructions os) ~cycles:(Os.cycles os)
      ~frame_keys:(frame_keys fc) ()
  in
  (g, host)

let fleet_domains = 2

type pass = {
  p_traced : bool;
  p_wall : float;
  p_domains : int;
  p_guests : guest list;
  p_fingerprint : string;  (* fleet merge fingerprint; "" elsewhere *)
  p_frames : int * int;  (* resident view frames over all guests, distinct contents *)
  p_major : int;
  p_speed : float;  (* the host's speed during the pass *)
}

let run_pass profiles inputs ~traced ~record =
  let major () = (Gc.quick_stat ()).Gc.major_collections in
  let m0 = major () in
  let t0 = now () in
  (* view frames and their distinct contents, as Fc_host.Fleet.merge counts them *)
  let frames keys =
    (List.length (List.concat keys), List.length (List.sort_uniq String.compare (List.concat keys)))
  in
  let sequential results =
    let guests, keys = List.split results in
    (guests, 1, "", frames keys)
  in
  let guests, domains, fingerprint, frames =
    match inputs with
    | Ub { views; units } -> sequential (List.mapi (ub_guest profiles ~views ~traced ~record) units)
    | Httperf batches -> sequential (List.mapi (httperf_guest profiles ~traced ~record) batches)
    | Fleet plans ->
        let plans = Array.of_list plans in
        (* each slot is written by the one worker that owns the index and
           read after the pool has joined *)
        let slots = Array.make (Array.length plans) None in
        let report =
          HFleet.run ~domains:fleet_domains ~guests:(Array.length plans) (fun i ->
              let g, host =
                fleet_guest profiles ~traced ~record ~domains:fleet_domains i plans.(i)
              in
              slots.(i) <- Some g;
              host)
        in
        ( Array.to_list (Array.map Option.get slots),
          report.HFleet.r_domains,
          report.HFleet.r_fingerprint,
          (report.HFleet.r_total_frames, report.HFleet.r_unique_frames) )
  in
  {
    p_traced = traced;
    p_wall = now () -. t0;
    p_domains = domains;
    p_guests = guests;
    p_fingerprint = fingerprint;
    p_frames = frames;
    p_major = major () - m0;
    p_speed = 1.;
  }

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

let kv_string kvs =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) kvs)

let digest p =
  let b = Buffer.create 4096 in
  List.iter
    (fun g ->
      Buffer.add_string b (kv_string g.g_det);
      Buffer.add_char b '\n')
    p.p_guests;
  Buffer.add_string b p.p_fingerprint;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pointwise sums of per-guest counter lists (all share one key order). *)
let sum_counts lists =
  match lists with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (k, _) -> (k, List.fold_left (fun a l -> a + List.assoc k l) 0 lists))
        first

let det_totals p = sum_counts (List.map (fun g -> g.g_det) p.p_guests)
let counts p = sum_counts (List.map (fun g -> g.g_counts) p.p_guests)

(* The committed digests of seeds 1 and 2, relative to the repository root. *)
let digests_path = "benchmark/digests.json"

let load_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> Result.map_error (fun e -> path ^ ": " ^ e) (J.of_string text)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type setup = { s_total : float list; s_image : float list; s_compute : float list }

let peak_rss_mb () =
  let parse line = Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.) in
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some line -> (
            match parse line with v -> v | exception _ -> go ())
      in
      go ())

(* Resets VmHWM to the current resident set (Linux clear_refs "5").  Where
   the file is not writable the peak also covers set-up. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* A host time measured during pass [p], at nominal host speed. *)
let at_speed p t = t *. p.p_speed

let wall p = at_speed p p.p_wall

(* A pass's layer times, per domain: the guests' bracket and self times
   summed and divided by the domains that ran them. *)
let layer p field =
  at_speed p (sum (List.map (fun g -> field g.g_ledger) p.p_guests) /. float_of_int p.p_domains)

(* The pass's wall time outside every bracket. *)
let harness p = wall p -. layer p (fun l -> l.boot +. l.attach +. l.view_build +. l.run)

(* How far boot + attach + view_build + the span self times (sched
   included) + harness miss the pass's wall time, as a share of it.  The
   harness is the rest of the wall, so this is how far the self times miss
   the Os.run brackets they split. *)
let closure_error p =
  Float.abs (layer p (fun l -> Array.fold_left ( +. ) 0. l.self) -. layer p (fun l -> l.run))
  /. wall p

(* The pass of median wall time, whose layers add up to it. *)
let median_pass passes =
  let sorted = List.sort (fun a b -> Float.compare (wall a) (wall b)) passes in
  List.nth sorted (List.length sorted / 2)

(* Unit latency samples.  When a pass holds at least 100 units
   (httperf), each unit's median over the passes: host noise that lands
   on one request of one pass stays out of the percentiles.  With fewer,
   every unit of every pass, so that the 90th percentile still has ten
   samples beyond it. *)
let unit_latencies passes =
  let per_pass =
    List.map
      (fun p ->
        Array.of_list (List.concat_map (fun g -> List.map (at_speed p) g.g_latencies) p.p_guests))
      passes
  in
  (* a pass whose guest failed early holds fewer samples *)
  let units = List.fold_left (fun a r -> min a (Array.length r)) max_int per_pass in
  if per_pass <> [] && units >= 100 then
    List.init units (fun u -> Stat.median (List.map (fun r -> r.(u)) per_pass))
  else List.concat_map Array.to_list per_pass

(* [rss_mb] is the peak of the warm-up pass over the set-up's live data:
   one pass is the workload's footprint, and later passes would only
   inflate it with garbage the longer the run. *)
let end_to_end setup ~rss_mb passes =
  let latencies = unit_latencies passes in
  [
    ("setup_s", Stat.median setup.s_total, "s");
    ("wall_s", Stat.median (List.map wall passes), "s");
    ("unit_ms_p50", Stat.percentile 0.5 latencies, "ms");
    ("unit_ms_p90", Stat.percentile 0.9 latencies, "ms");
    ("peak_rss_mb", rss_mb, "MB");
  ]

(* Per-layer metrics.  Times come from the median traced pass (the median
   untraced one when there are none), so they add up to its wall time;
   counts come from the first pass, which every other pass reproduces
   exactly. *)
let per_layer setup ~untraced ~traced =
  let p = median_pass (if traced = [] then untraced else traced) in
  let first = List.hd untraced in
  let c = counts first in
  let n k = List.assoc k c in
  let guests = float_of_int (List.length first.p_guests) in
  let det = det_totals first in
  let instructions = List.assoc "instructions" det in
  let layer_s name field = (name, layer p field, "s") in
  let frames, unique = first.p_frames in
  let busy = Array.make p.p_domains 0. in
  List.iter
    (fun g -> busy.(g.g_ledger.l_domain) <- busy.(g.g_ledger.l_domain) +. g.g_ledger.total)
    p.p_guests;
  let busy_total = Array.fold_left ( +. ) 0. busy in
  let domains = float_of_int p.p_domains in
  let count name key = (name, float_of_int (n key), "count") in
  [
    ("kernel.image_s", Stat.median setup.s_image, "s");
    ("profiler.compute_s", Stat.median setup.s_compute, "s");
    layer_s "machine.boot_s" (fun l -> l.boot);
    ( "machine.boot_ms_p50",
      Stat.percentile 0.5 (List.map (fun g -> at_speed p g.g_ledger.boot *. 1e3) p.p_guests),
      "ms" );
    layer_s "hypervisor.attach_s" (fun l -> l.attach);
    layer_s "core.view_build_s" (fun l -> l.view_build);
    count "core.view_pages" "fc.view_pages";
    ("mem.frame_cache_hit_ratio", ratio (n "cache.hits") (n "cache.hits" + n "cache.misses"), "ratio");
    ("mem.live_frames_per_guest", float_of_int (n "mem.live_frames") /. guests, "count");
    ("host.fleet_dedup_ratio", ratio (frames - unique) frames, "ratio");
    layer_s "machine.run_s" (fun l -> l.run);
    layer_s "machine.engine_self_s" (fun l -> l.self.(engine));
    layer_s "machine.sched_s" (fun l -> l.self.(sched));
    ( "machine.run_mips",
      float_of_int instructions /. (layer p (fun l -> l.run) *. domains) /. 1e6,
      "Minsn/s" );
    ("machine.instructions", float_of_int instructions, "count");
    ("machine.sim_cpi", ratio (List.assoc "guest_cycles" det) instructions, "cycles/insn");
    ("machine.context_switches", float_of_int (List.assoc "context_switches" det), "count");
    ("mem.itlb_hit_ratio", ratio (n "tlb.i_hits") (n "tlb.i_hits" + n "tlb.i_misses"), "ratio");
    ("mem.dtlb_hit_ratio", ratio (n "tlb.d_hits") (n "tlb.d_hits" + n "tlb.d_misses"), "ratio");
    count "mem.tlb_flushes_view_switch" "tlb.flushes{view_switch}";
    count "mem.tlb_flushes_cow" "tlb.flushes{cow}";
    count "mem.tlb_flushes_growth" "tlb.flushes{growth}";
    count "mem.tlb_flushes_explicit" "tlb.flushes{explicit}";
    ("machine.sb_hit_ratio", ratio (n "sb.hits") (n "sb.hits" + n "sb.blocks_built"), "ratio");
    count "machine.sb_built" "sb.blocks_built";
    count "machine.sb_invalidations" "sb.invalidations";
    count "machine.sb_restamps" "sb.restamps";
    layer_s "hypervisor.exit_self_s" (fun l -> l.self.(exit_handling));
    ( "hypervisor.exit_us_p50",
      Stat.percentile 0.5
        (List.concat_map (fun g -> List.map (fun d -> at_speed p d *. 1e6) g.g_ledger.exits) p.p_guests),
      "us" );
    count "hypervisor.vm_exits_bp" "hyp.breakpoint_exits";
    count "hypervisor.vm_exits_ud" "hyp.invalid_opcode_exits";
    count "hypervisor.cycles_charged" "hyp.cycles_charged";
    count "core.view_switches" "fc.view_switches";
    count "core.switch_skips" "fc.switches_skipped";
    count "core.switch_deferred" "fc.switches_deferred";
    layer_s "hypervisor.backtrace_self_s" (fun l -> l.self.(backtrace));
    layer_s "core.recovery_self_s" (fun l -> l.self.(recovery));
    count "core.recoveries" "fc.recoveries";
    count "core.recovered_bytes" "fc.recovered_bytes";
    count "core.degradations" "fc.degradations";
    count "core.quarantines" "fc.quarantines";
    count "faults.injected" "faults.injected";
    ("host.busy_frac", busy_total /. (domains *. p.p_wall), "ratio");
    ("host.imbalance", Array.fold_left Float.max 0. busy /. (busy_total /. domains), "ratio");
    ( "runtime.minor_mwords_per_guest",
      sum (List.map (fun g -> g.g_minor_words) p.p_guests) /. 1e6 /. guests,
      "Mwords" );
    ("runtime.major_collections", float_of_int p.p_major, "count");
    ( "obs.trace_overhead_frac",
      (if traced = [] then 0. else wall (median_pass traced) /. wall (median_pass untraced) -. 1.),
      "ratio" );
    ("obs.harness_s", harness p, "s");
    ("host.speed", Stat.median (List.map (fun p -> p.p_speed) (untraced @ traced)), "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(* Kernel image plus the twelve application profiles: what every user of
   the library builds before the first guest boots.  Each set-up starts
   from a compacted heap that holds nothing of the earlier ones, as in a
   fresh process, and is timed at nominal host speed. *)
let setup ~reps =
  let once () =
    Gc.compact ();
    let t0 = now () in
    let image = Image.build_exn () in
    let t1 = now () in
    let profiles = Profiles.compute image in
    (profiles, t1 -. t0, now () -. t1)
  in
  let rec go i before times =
    let profiles, image_s, compute_s = once () in
    let after = reference ~domains:1 in
    let s = speed ~before ~after in
    let times = (image_s *. s, compute_s *. s) :: times in
    if i = reps then (profiles, List.rev times) else go (i + 1) after times
  in
  let profiles, times = go 1 (reference ~domains:1) [] in
  ( profiles,
    {
      s_total = List.map (fun (a, b) -> a +. b) times;
      s_image = List.map fst times;
      s_compute = List.map snd times;
    } )

type result = {
  r_setup : float list;  (* each set-up's seconds *)
  r_passes : pass list;  (* measured, warm-up excluded *)
  r_attempted : int;
  r_failed : int;
  r_problems : string list;
  r_digest : string;
  r_det : (string * int) list;
  r_metrics : (string * float * string) list;
}

(* The counters of [a] on which [b] disagrees. *)
let diverged a b =
  List.filter_map (fun (k, v) -> if List.assoc_opt k b = Some v then None else Some k) a

let committed_counters c =
  match J.member "counters" c with
  | Some (J.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (J.to_int v)) kvs
  | _ -> []

(* Runs one workload: a warm-up pass, then passes until [seconds] have
   elapsed and at least [min_passes] ran.  [committed] is the workload's
   digests.json entry for this seed, if there is one. *)
let measure profiles setup ~workload ~size ~seed ~seconds ~trace ~min_passes ~committed =
  let inputs = inputs_of size ~seed workload in
  (* every workload starts from a compacted heap and its peak is its own:
     set-up's transient peak, and where set-up's garbage happened to
     leave the heap, would otherwise decide the figure *)
  Gc.compact ();
  reset_peak_rss ();
  let warm = run_pass profiles inputs ~traced:false ~record:false in
  let rss_mb = peak_rss_mb () in
  let reference () = reference ~domains:warm.p_domains in
  let start = now () in
  let rec loop i before acc =
    if i >= min_passes && now () -. start >= seconds then List.rev acc
    else
      let traced = trace && i mod 2 = 1 in
      let p = run_pass profiles inputs ~traced ~record:(traced && i = 1) in
      let after = reference () in
      loop (i + 1) after ({ p with p_speed = speed ~before ~after } :: acc)
  in
  let passes = loop 0 (reference ()) [] in
  let expected = digest warm in
  let det = det_totals warm in
  let problems =
    List.concat_map
      (fun p ->
        List.filter_map (fun g -> g.g_failure) p.p_guests
        @ (if digest p = expected then []
           else
             [
               Printf.sprintf "a %s pass diverged from the warm-up pass: %s"
                 (if p.p_traced then "traced" else "untraced")
                 (String.concat ", " (diverged det (det_totals p)));
             ])
        @
        if p.p_traced && closure_error p > 0.05 then
          [ Printf.sprintf "traced layers miss the pass wall time by %.1f%%"
              (100. *. closure_error p) ]
        else [])
      (warm :: passes)
  in
  let committed_problem =
    match committed with
    | Some c when J.member "digest" c <> Some (J.String expected) ->
        [ Printf.sprintf "digest %s differs from digests.json; diverged counters: %s"
            expected
            (String.concat ", " (diverged det (committed_counters c))) ]
    | _ -> []
  in
  let units p = List.fold_left (fun a g -> a + g.g_units) 0 p.p_guests in
  let failed p =
    List.fold_left (fun a g -> if g.g_failure = None then a else a + g.g_units) 0 p.p_guests
  in
  let attempted = List.fold_left (fun a p -> a + units p) 0 (warm :: passes) in
  let untraced = List.filter (fun p -> not p.p_traced) passes in
  let traced = List.filter (fun p -> p.p_traced) passes in
  {
    r_setup = setup.s_total;
    r_passes = passes;
    r_attempted = attempted;
    r_failed =
      (if committed_problem <> [] then attempted
       else List.fold_left (fun a p -> a + failed p) 0 (warm :: passes));
    r_problems = List.sort_uniq String.compare problems @ committed_problem;
    r_digest = expected;
    r_det = det;
    r_metrics = end_to_end setup ~rss_mb untraced @ per_layer setup ~untraced ~traced;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let spec_metrics spec key =
  match J.member key spec with
  | Some (J.List ms) ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.String n), Some (J.String u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
        ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

(* The metrics BENCHMARK.json names, in its order, with the units it
   states; a name the benchmark does not compute is an error. *)
let select wanted table =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (n, _, _) -> n = name) table with
      | Some (_, v, u) when u = unit_ -> Ok (name, v, u)
      | Some (_, _, u) ->
          Error (Printf.sprintf "%s: unit %s, BENCHMARK.json says %s" name u unit_)
      | None -> Error ("metric not computed: " ^ name))
    wanted

let metrics_json ms =
  J.Obj
    (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ])) ms)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path text =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let write_chrome path passes =
  let events =
    List.concat_map
      (fun p -> List.concat_map (fun g -> List.rev g.g_ledger.chrome) p.p_guests)
      passes
  in
  if events <> [] then
    write_file path
      (J.to_string (J.Obj [ ("traceEvents", J.List events); ("displayTimeUnit", J.String "ms") ]))

let write_result path ~workload ~seed ~trace ~seconds r =
  write_file path
    (J.to_string ~pretty:true
       (J.Obj
          [
            ("workload", J.String workload); ("seed", J.Int seed); ("trace", J.Bool trace);
            ("seconds", J.Float seconds);
            ("setup_s_reps", J.List (List.map (fun t -> J.Float t) r.r_setup));
            ("pass_wall_s", J.List (List.map (fun p -> J.Float (wall p)) r.r_passes));
            ("pass_host_speed", J.List (List.map (fun p -> J.Float p.p_speed) r.r_passes));
            ("attempted", J.Int r.r_attempted); ("failed", J.Int r.r_failed);
            ("correct", J.Bool (r.r_problems = []));
            ("problems", J.List (List.map (fun s -> J.String s) r.r_problems));
            ("digest", J.String r.r_digest);
            ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.r_det));
            ("metrics", metrics_json r.r_metrics);
          ]))

let run_one ~spec ~out ~workload ~seed ~seconds ~trace =
  let wanted = spec_metrics spec (if trace then "per_layer" else "end_to_end") in
  let committed =
    match load_json digests_path with
    | Ok j -> J.path j [ workload; string_of_int seed ]
    | Error e -> failwith e
  in
  let profiles, setup = setup ~reps:3 in
  let r =
    measure profiles setup ~workload ~size:full ~seed ~seconds ~trace ~min_passes:(if trace then 4 else 3)
      ~committed
  in
  let out = Option.value out ~default:(Printf.sprintf "benchmark/out/seed%d%s" seed (if trace then "-trace" else "")) in
  write_result (Filename.concat out (workload ^ ".json")) ~workload ~seed ~trace ~seconds r;
  if trace then write_chrome (Filename.concat out ("trace-" ^ workload ^ ".json")) r.r_passes;
  List.iter (fun p -> prerr_endline (workload ^ ": " ^ p)) r.r_problems;
  let chosen =
    List.map (function Ok m -> m | Error e -> failwith e) (select wanted r.r_metrics)
  in
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" workload n v u) chosen;
  if not trace then
    Printf.printf "%s unit_samples %d count\n" workload
      (List.length (unit_latencies (List.filter (fun p -> not p.p_traced) r.r_passes)));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (r.r_problems = [])); ("attempted", J.Int r.r_attempted);
            ("failed", J.Int r.r_failed); ("metrics", metrics_json chosen);
          ]))

(* Every workload at a small size, untraced then traced: the metric names
   and units BENCHMARK.json states are all computed, both modes agree on
   the digest, nothing fails, and the traced layers add up. *)
let smoke ~spec =
  let profiles, setup = setup ~reps:1 in
  let errors =
    List.concat_map
      (fun workload ->
        let run trace =
          measure profiles setup ~workload ~size:small ~seed:1 ~seconds:0. ~trace
            ~min_passes:(if trace then 2 else 1) ~committed:None
        in
        let plain = run false and traced = run true in
        let bad r key =
          List.filter_map (function Ok _ -> None | Error e -> Some e)
            (select (spec_metrics spec key) r.r_metrics)
        in
        List.map (fun e -> workload ^ ": " ^ e)
          (bad plain "end_to_end" @ bad traced "per_layer" @ plain.r_problems
          @ traced.r_problems
          @ (if plain.r_digest = traced.r_digest then []
             else [ "traced and untraced digests differ" ])
          @
          if plain.r_failed + traced.r_failed = 0 then []
          else [ "failed units" ]))
      workloads
  in
  List.iter prerr_endline errors;
  if errors <> [] then exit 1;
  print_endline "benchmark smoke: ok"

(* Seeds 1 and 2 at full size: the working seed and the held-out one. *)
let bless () =
  let profiles, _ = setup ~reps:1 in
  let entry workload seed =
    let p = run_pass profiles (inputs_of full ~seed workload) ~traced:false ~record:false in
    ( string_of_int seed,
      J.Obj
        [
          ("digest", J.String (digest p));
          ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (det_totals p)));
        ] )
  in
  write_file digests_path
    (J.to_string ~pretty:true
       (J.Obj (List.map (fun w -> (w, J.Obj [ entry w 1; entry w 2 ])) workloads))
    ^ "\n")

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let spec = ref "BENCHMARK.json" in
  let out = ref None and mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 20)");
      ("--trace", Arg.Int (( := ) trace), "0|1 end-to-end or per-layer metrics");
      ("--spec", Arg.Set_string spec, "PATH BENCHMARK.json (default ./BENCHMARK.json)");
      ("--out", Arg.String (fun d -> out := Some d), "DIR result directory (default benchmark/out/seed<N>[-trace])");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " small run of every workload, both modes");
      ("--bless", Arg.Unit (fun () -> mode := `Bless), " rewrite the committed digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let spec () =
    match load_json !spec with
    | Ok j -> j
    | Error e -> failwith e
  in
  match !mode with
  | `Smoke -> smoke ~spec:(spec ())
  | `Bless -> bless ()
  | `Run ->
      if !workload = "" || not (List.mem !trace [ 0; 1 ]) then begin
        prerr_endline "main.exe: --workload and --trace 0|1 are required";
        exit 2
      end;
      run_one ~spec:(spec ()) ~out:!out ~workload:!workload ~seed:!seed
        ~seconds:!seconds ~trace:(!trace = 1)
