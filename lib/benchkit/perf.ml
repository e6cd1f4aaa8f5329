module Os = Fc_machine.Os
module Action = Fc_machine.Action
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Metrics = Fc_obs.Metrics
module J = Fc_obs.Jsonx

type counters = {
  c_instructions : int;
  c_cycles : int;
  c_i_hits : int;
  c_i_misses : int;
  c_d_hits : int;
  c_d_misses : int;
  c_i_flushes : int;
  c_d_flushes : int;
  c_sb_built : int;
  c_sb_hits : int;
  c_sb_invals : int;
  c_sb_chains : int;
  c_sb_restamps : int;
  (* translation invalidations by cause (the tlb.flushes{cause} family) *)
  c_fl_growth : int;
  c_fl_explicit : int;
}

let zero_counters =
  { c_instructions = 0; c_cycles = 0; c_i_hits = 0; c_i_misses = 0;
    c_d_hits = 0; c_d_misses = 0; c_i_flushes = 0; c_d_flushes = 0;
    c_sb_built = 0; c_sb_hits = 0; c_sb_invals = 0; c_sb_chains = 0;
    c_sb_restamps = 0; c_fl_growth = 0; c_fl_explicit = 0 }

(* Whole-guest counters at end of life.  Guest instructions only retire
   inside [Os.run]/exec paths — exactly the spans the arms time — so
   instructions/seconds is a faithful instructions-per-second figure. *)
let collect os acc =
  let m = Fc_obs.Obs.metrics (Os.obs os) in
  let v name = Option.value (Metrics.find m name) ~default:0 in
  {
    c_instructions = acc.c_instructions + Os.instructions os;
    c_cycles = acc.c_cycles + Os.cycles os;
    c_i_hits = acc.c_i_hits + v "tlb.i_hits";
    c_i_misses = acc.c_i_misses + v "tlb.i_misses";
    c_d_hits = acc.c_d_hits + v "tlb.d_hits";
    c_d_misses = acc.c_d_misses + v "tlb.d_misses";
    c_i_flushes = acc.c_i_flushes + v "tlb.i_flushes";
    c_d_flushes = acc.c_d_flushes + v "tlb.d_flushes";
    c_sb_built = acc.c_sb_built + v "sb.blocks_built";
    c_sb_hits = acc.c_sb_hits + v "sb.hits";
    c_sb_invals = acc.c_sb_invals + v "sb.invalidations";
    c_sb_chains = acc.c_sb_chains + v "sb.chain_follows";
    c_sb_restamps = acc.c_sb_restamps + v "sb.restamps";
    c_fl_growth = acc.c_fl_growth + v "tlb.flushes{growth}";
    c_fl_explicit = acc.c_fl_explicit + v "tlb.flushes{explicit}";
  }

type arm = {
  a_label : string;
  a_engine : Os.engine;
  a_views : bool;
  a_reps : int;
  a_seconds : float;  (* min wall clock across the reps (noise floor) *)
  a_ips : float;      (* instructions per wall-clock second, best rep *)
  a_counters : counters;  (* one deterministic pass (rep-independent) *)
}

let ips ~instructions ~reps ~seconds =
  if seconds <= 0. then 0.
  else float_of_int (instructions * reps) /. seconds

let make_arm ~label ~engine ~views ~reps ~seconds ~counters =
  {
    a_label = label;
    a_engine = engine;
    a_views = views;
    a_reps = reps;
    a_seconds = seconds;
    (* seconds is the best (min) single rep, so no reps factor here *)
    a_ips = ips ~instructions:counters.c_instructions ~reps:1 ~seconds;
    a_counters = counters;
  }

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* UnixBench workload                                                  *)
(* ------------------------------------------------------------------ *)

(* The views loaded (and their resident applications) for the views-on
   arms: enough to exercise switching and COW without dominating wall
   time with view builds. *)
let perf_view_apps = [ "top"; "apache" ]

(* One subtest in a fresh guest, mirroring [Unixbench.run_one] but with
   the engine choice and wall-clock timing of the run spans.  Returns
   the elapsed seconds; the guest is handed back for counter
   collection. *)
let run_subtest image ~engine ~views ~residents (st : Unixbench.subtest) =
  let os = Os.create ~config:Unixbench.bench_config ~engine image in
  if views <> [] then begin
    let hyp = Hyp.attach os in
    let fc = Facechange.enable hyp in
    List.iter (fun cfg -> ignore (Facechange.load_view fc cfg)) views
  end;
  let resident_procs =
    List.map (fun name -> Os.spawn os ~name Unixbench.resident_script) residents
  in
  let elapsed = ref 0. in
  if resident_procs <> [] then begin
    let t0 = now () in
    Os.run
      ~until:(fun _ ->
        List.for_all (fun p -> not (Process.is_ready p)) resident_procs)
      os;
    elapsed := !elapsed +. (now () -. t0)
  end;
  let bench =
    List.map (fun (name, script) -> Os.spawn os ~name script) st.Unixbench.procs
  in
  let t0 = now () in
  Os.run ~until:(fun _ -> List.for_all Process.is_exited bench) os;
  elapsed := !elapsed +. (now () -. t0);
  (os, !elapsed)

let unixbench_arm profiles ~engine ~views_on ~reps =
  let image = Profiles.image profiles in
  let views =
    if views_on then List.map (Profiles.config_of profiles) perf_view_apps
    else []
  in
  let residents = List.map (fun c -> c.Fc_profiler.View_config.app) views in
  let seconds = ref infinity in
  let counters = ref zero_counters in
  for rep = 1 to max 1 reps do
    let rep_seconds = ref 0. in
    List.iter
      (fun st ->
        let os, dt = run_subtest image ~engine ~views ~residents st in
        rep_seconds := !rep_seconds +. dt;
        (* counters from the first rep only: every rep is the same
           deterministic run, so the pinned numbers are rep-independent *)
        if rep = 1 then counters := collect os !counters)
      Unixbench.subtests;
    (* min across reps: the least-interrupted pass, not a noisy sum *)
    seconds := Float.min !seconds !rep_seconds
  done;
  let label =
    Printf.sprintf "%s+%s" (Os.engine_name engine)
      (if views_on then "views" else "noviews")
  in
  make_arm ~label ~engine ~views:views_on ~reps:(max 1 reps)
    ~seconds:!seconds ~counters:!counters

(* ------------------------------------------------------------------ *)
(* httperf workload                                                    *)
(* ------------------------------------------------------------------ *)

(* The Fig. 7 apache request batch (same scripts as [Httperf]), with
   FACE-CHANGE enabled and the apache view loaded in every arm — only
   the engine differs. *)
let httperf_arm profiles ~engine ~reps =
  let app = Fc_apps.App.find_exn "apache" in
  let config = { (Fc_apps.App.os_config app) with Os.wake_delay = 2 } in
  let seconds = ref infinity in
  let counters = ref zero_counters in
  for rep = 1 to max 1 reps do
    let os = Os.create ~config ~engine (Profiles.image profiles) in
    let hyp = Hyp.attach os in
    let fc = Facechange.enable hyp in
    let (_ : int) =
      Facechange.load_view fc (Profiles.config_of profiles "apache")
    in
    let script =
      [ Action.Syscall "socket:tcp"; Action.Syscall "setsockopt:tcp";
        Action.Syscall "bind:tcp"; Action.Syscall "listen:tcp";
        Action.Syscall "epoll_create"; Action.Syscall "epoll_ctl" ]
      @ Action.repeat 100 Httperf.request_actions
      @ [ Action.Exit ]
    in
    let (_ : Process.t) = Os.spawn os ~name:"apache" script in
    let t0 = now () in
    Os.run os;
    seconds := Float.min !seconds (now () -. t0);
    if rep = 1 then counters := collect os !counters
  done;
  make_arm ~label:(Os.engine_name engine) ~engine ~views:true ~reps:(max 1 reps)
    ~seconds:!seconds ~counters:!counters

(* ------------------------------------------------------------------ *)
(* Warm vs cold TLB                                                    *)
(* ------------------------------------------------------------------ *)

let syscall_loop =
  Action.repeat 500 [ Action.Syscall "getpid"; Action.Syscall "getuid" ]
  @ [ Action.Exit ]

(* Two identical syscall-heavy processes in the {e same} guest: the
   first pays every compulsory TLB miss (cold), the second runs with the
   kernel's working set already cached (warm — only its own kernel stack
   pages miss). *)
let warm_cold image =
  let os = Os.create ~config:Unixbench.bench_config image in
  let measure () =
    let p = Os.spawn os ~name:"ubench" syscall_loop in
    let i0 = Os.instructions os in
    let t0 = now () in
    Os.run ~until:(fun _ -> Process.is_exited p) os;
    let dt = now () -. t0 in
    let di = Os.instructions os - i0 in
    (dt, di)
  in
  let cold_s, cold_i = measure () in
  let warm_s, warm_i = measure () in
  ( (cold_s, cold_i, ips ~instructions:cold_i ~reps:1 ~seconds:cold_s),
    (warm_s, warm_i, ips ~instructions:warm_i ~reps:1 ~seconds:warm_s) )

(* ------------------------------------------------------------------ *)
(* Driver + JSON                                                       *)
(* ------------------------------------------------------------------ *)

let schema_version = 2

type t = {
  reps : int;
  unixbench : arm list;
  unixbench_speedup : float;  (* fast vs reference, views on *)
  unixbench_speedup_noviews : float;
  httperf : arm list;
  httperf_speedup : float;
  cold : float * int * float;  (* seconds, instructions, ips *)
  warm : float * int * float;
}

let speedup ~fast_arm ~base_arm =
  if base_arm.a_ips <= 0. then 0. else fast_arm.a_ips /. base_arm.a_ips

(* Each workload runs on the reference engine (the baseline whose
   retirement the fast engine must reproduce exactly) and the fast
   engine, reference first. *)
let run ?(reps = 3) profiles =
  let ub engine views_on = unixbench_arm profiles ~engine ~views_on ~reps in
  let ub_ref_v = ub Os.Reference true in
  let ub_fast_v = ub Os.Fast true in
  let ub_ref_n = ub Os.Reference false in
  let ub_fast_n = ub Os.Fast false in
  let hp_ref = httperf_arm profiles ~engine:Os.Reference ~reps in
  let hp_fast = httperf_arm profiles ~engine:Os.Fast ~reps in
  let cold, warm = warm_cold (Profiles.image profiles) in
  {
    reps = max 1 reps;
    unixbench = [ ub_ref_v; ub_fast_v; ub_ref_n; ub_fast_n ];
    unixbench_speedup = speedup ~fast_arm:ub_fast_v ~base_arm:ub_ref_v;
    unixbench_speedup_noviews = speedup ~fast_arm:ub_fast_n ~base_arm:ub_ref_n;
    httperf = [ hp_ref; hp_fast ];
    httperf_speedup = speedup ~fast_arm:hp_fast ~base_arm:hp_ref;
    cold;
    warm;
  }

let counters_to_json c =
  J.Obj
    [
      ("instructions", J.Int c.c_instructions);
      ("cycles", J.Int c.c_cycles);
      ("i_hits", J.Int c.c_i_hits);
      ("i_misses", J.Int c.c_i_misses);
      ("d_hits", J.Int c.c_d_hits);
      ("d_misses", J.Int c.c_d_misses);
      ("i_flushes", J.Int c.c_i_flushes);
      ("d_flushes", J.Int c.c_d_flushes);
      ("sb_built", J.Int c.c_sb_built);
      ("sb_hits", J.Int c.c_sb_hits);
      ("sb_invals", J.Int c.c_sb_invals);
      ("sb_chains", J.Int c.c_sb_chains);
      ("sb_restamps", J.Int c.c_sb_restamps);
      ("fl_growth", J.Int c.c_fl_growth);
      ("fl_explicit", J.Int c.c_fl_explicit);
    ]

let arm_to_json a =
  J.Obj
    [
      ("label", J.String a.a_label);
      ("engine", J.String (Os.engine_name a.a_engine));
      ("views", J.Bool a.a_views);
      ("reps", J.Int a.a_reps);
      ("seconds", J.Float a.a_seconds);
      ("ips", J.Float a.a_ips);
      ("counters", counters_to_json a.a_counters);
    ]

let point_to_json (s, i, v) =
  J.Obj
    [ ("seconds", J.Float s); ("instructions", J.Int i); ("ips", J.Float v) ]

let to_json t =
  J.Obj
    [
      ("reps", J.Int t.reps);
      ( "unixbench",
        J.Obj
          [
            ("arms", J.List (List.map arm_to_json t.unixbench));
            ("speedup_fast_vs_reference", J.Float t.unixbench_speedup);
            ( "speedup_fast_vs_reference_noviews",
              J.Float t.unixbench_speedup_noviews );
          ] );
      ( "httperf",
        J.Obj
          [
            ("arms", J.List (List.map arm_to_json t.httperf));
            ("speedup_fast_vs_reference", J.Float t.httperf_speedup);
          ] );
      ( "warm_cold",
        J.Obj [ ("cold", point_to_json t.cold); ("warm", point_to_json t.warm) ]
      );
    ]

let render t =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "Execution engines: wall-clock guest instructions/sec (reps=%d)\n\n"
    t.reps;
  let arm_line a =
    pr "  %-18s %10.3fs  %12d instr  %12.0f ips  (iTLB %d/%d, dTLB %d/%d)\n"
      a.a_label a.a_seconds a.a_counters.c_instructions a.a_ips
      a.a_counters.c_i_hits a.a_counters.c_i_misses a.a_counters.c_d_hits
      a.a_counters.c_d_misses;
    match a.a_engine with
    | Os.Reference -> ()
    | Os.Fast ->
        pr "  %-18s   sblocks: %d built, %d hits, %d invalidations, %d \
            chains, %d restamps\n"
          "" a.a_counters.c_sb_built a.a_counters.c_sb_hits
          a.a_counters.c_sb_invals a.a_counters.c_sb_chains
          a.a_counters.c_sb_restamps;
        pr "  %-18s   flushes: %d growth, %d explicit\n" ""
          a.a_counters.c_fl_growth a.a_counters.c_fl_explicit
  in
  pr "UnixBench suite:\n";
  List.iter arm_line t.unixbench;
  pr "  fast speedup (views on):  %.2fx over the reference arm\n"
    t.unixbench_speedup;
  pr "  fast speedup (views off): %.2fx over the reference arm\n\n"
    t.unixbench_speedup_noviews;
  pr "httperf batch (apache view):\n";
  List.iter arm_line t.httperf;
  pr "  fast speedup: %.2fx over the reference arm\n\n" t.httperf_speedup;
  let s, i, v = t.cold in
  pr "syscall loop, cold TLB: %.4fs  %d instr  %.0f ips\n" s i v;
  let s, i, v = t.warm in
  pr "syscall loop, warm TLB: %.4fs  %d instr  %.0f ips\n" s i v;
  Buffer.contents buf
