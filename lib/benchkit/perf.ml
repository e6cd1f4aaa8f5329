module Os = Fc_machine.Os
module Action = Fc_machine.Action
module Process = Fc_machine.Process
module Layers = Fc_obs.Layers
module Metrics = Fc_obs.Metrics
module J = Fc_obs.Jsonx

(* What an arm reports of each guest's registry at end of life, summed
   over the arm's guests: (JSON key, registry name). *)
let counter_keys =
  [
    ("instructions", "os.instructions"); ("cycles", "os.cycles");
    ("i_hits", "tlb.i_hits"); ("i_misses", "tlb.i_misses");
    ("d_hits", "tlb.d_hits"); ("d_misses", "tlb.d_misses");
    ("i_flushes", "tlb.i_flushes"); ("d_flushes", "tlb.d_flushes");
    ("sb_built", "sb.blocks_built"); ("sb_hits", "sb.hits");
    ("sb_invals", "sb.invalidations"); ("fl_growth", "tlb.flushes{growth}");
    ("fl_explicit", "tlb.flushes{explicit}");
  ]

type arm = {
  a_label : string;
  a_engine : Os.engine;
  a_views : bool;
  a_layers : Layers.t;
  a_counters : (string * int) list;
}

let counter a key = List.assoc key a.a_counters
let seconds a = Layers.total a.a_layers

let ips a =
  if seconds a <= 0. then 0.
  else float_of_int (counter a "instructions") /. seconds a

(* One pass over the arm's guests, in order, each booted by [guest] with
   the arm's accountant following it. *)
let run_arm ~label ~engine ~views guests =
  let layers = Layers.create ~clock:Unix.gettimeofday in
  let sums = Array.make (List.length counter_keys) 0 in
  List.iter
    (fun guest ->
      let m = Fc_obs.Obs.metrics (Os.obs (guest layers)) in
      List.iteri
        (fun i (_, name) ->
          sums.(i) <- sums.(i) + Option.value (Metrics.find m name) ~default:0)
        counter_keys)
    guests;
  {
    a_label = label;
    a_engine = engine;
    a_views = views;
    a_layers = layers;
    a_counters = List.mapi (fun i (key, _) -> (key, sums.(i))) counter_keys;
  }

(* The views loaded (and their resident applications) for the views-on
   arms: enough to exercise switching and COW without dominating host
   time with view builds. *)
let perf_view_apps = [ "top"; "apache" ]

(* The nine UnixBench subtests, each in a fresh guest, as Fig. 6 runs
   them. *)
let unixbench_arm profiles ~engine ~views_on =
  let image = Profiles.image profiles in
  let views =
    if views_on then List.map (Profiles.config_of profiles) perf_view_apps
    else []
  in
  let residents = List.map (fun c -> c.Fc_profiler.View_config.app) views in
  run_arm
    ~label:
      (Printf.sprintf "%s+%s" (Os.engine_name engine)
         (if views_on then "views" else "noviews"))
    ~engine ~views:views_on
    (List.map
       (fun st layers ->
         fst
           (Unixbench.run_one ~engine ~layers image ~views ~residents
              ~enabled:views_on st))
       Unixbench.subtests)

(* The Fig. 7 apache request batch, FACE-CHANGE on and the apache view
   loaded in every arm: only the engine differs. *)
let httperf_arm profiles ~engine =
  run_arm ~label:(Os.engine_name engine) ~engine ~views:true
    [
      (fun layers ->
        fst (Httperf.serve_batch ~engine ~layers profiles ~enabled:true));
    ]

let syscall_loop =
  Action.repeat 500 [ Action.Syscall "getpid"; Action.Syscall "getuid" ]
  @ [ Action.Exit ]

(* Two identical syscall-heavy processes in the {e same} guest: the
   first pays every compulsory TLB miss (cold), the second runs with the
   kernel's working set already cached (warm — only its own kernel stack
   pages miss).  Returns the instructions each retired. *)
let warm_cold image =
  let os = Os.create ~config:Unixbench.bench_config image in
  let measure () =
    let p = Os.spawn os ~name:"ubench" syscall_loop in
    let i0 = Os.instructions os in
    Os.run ~until:(fun _ -> Process.is_exited p) os;
    Os.instructions os - i0
  in
  let cold = measure () in
  let warm = measure () in
  (cold, warm)

let schema_version = 4

type t = {
  unixbench : arm list;
  unixbench_speedup : float;
  unixbench_speedup_noviews : float;
  httperf : arm list;
  httperf_speedup : float;
  cold_instructions : int;
  warm_instructions : int;
}

(* engine self time: the host seconds spent in run slices *)
let speedup ~fast_arm ~base_arm =
  let self a = Layers.self a.a_layers "run_slice" in
  if self fast_arm <= 0. then 0. else self base_arm /. self fast_arm

(* Each workload runs once on the reference engine (the baseline whose
   retirement the fast engine must reproduce exactly) and once on the
   fast engine, reference first. *)
let run profiles =
  let ub engine views_on = unixbench_arm profiles ~engine ~views_on in
  let ub_ref_v = ub Os.Reference true in
  let ub_fast_v = ub Os.Fast true in
  let ub_ref_n = ub Os.Reference false in
  let ub_fast_n = ub Os.Fast false in
  let hp_ref = httperf_arm profiles ~engine:Os.Reference in
  let hp_fast = httperf_arm profiles ~engine:Os.Fast in
  let cold, warm = warm_cold (Profiles.image profiles) in
  {
    unixbench = [ ub_ref_v; ub_fast_v; ub_ref_n; ub_fast_n ];
    unixbench_speedup = speedup ~fast_arm:ub_fast_v ~base_arm:ub_ref_v;
    unixbench_speedup_noviews = speedup ~fast_arm:ub_fast_n ~base_arm:ub_ref_n;
    httperf = [ hp_ref; hp_fast ];
    httperf_speedup = speedup ~fast_arm:hp_fast ~base_arm:hp_ref;
    cold_instructions = cold;
    warm_instructions = warm;
  }

let arm_to_json a =
  J.Obj
    [
      ("label", J.String a.a_label);
      ("engine", J.String (Os.engine_name a.a_engine));
      ("views", J.Bool a.a_views);
      ("seconds", J.Float (seconds a));
      ("layers", Layers.to_json a.a_layers);
      ("ips", J.Float (ips a));
      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) a.a_counters));
    ]

let to_json t =
  let instructions n = J.Obj [ ("instructions", J.Int n) ] in
  J.Obj
    [
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
        J.Obj
          [
            ("cold", instructions t.cold_instructions);
            ("warm", instructions t.warm_instructions);
          ] );
    ]

let render t =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "Execution engines: host seconds by layer, one traced pass per arm\n\n";
  let arm_line a =
    let c = counter a in
    pr "  %-18s %10.3fs  %12d instr  %12.0f ips  (iTLB %d/%d, dTLB %d/%d)\n"
      a.a_label (seconds a) (c "instructions") (ips a) (c "i_hits")
      (c "i_misses") (c "d_hits") (c "d_misses");
    pr "  %-18s   layers (s): %s\n" ""
      (String.concat ", "
         (List.map
            (fun l -> Printf.sprintf "%s %.3f" l (Layers.self a.a_layers l))
            Layers.layers));
    match a.a_engine with
    | Os.Reference -> ()
    | Os.Fast ->
        pr "  %-18s   sblocks: %d built, %d hits, %d invalidations\n" ""
          (c "sb_built") (c "sb_hits") (c "sb_invals");
        pr "  %-18s   flushes: %d growth, %d explicit\n" "" (c "fl_growth")
          (c "fl_explicit")
  in
  pr "UnixBench suite:\n";
  List.iter arm_line t.unixbench;
  pr "  fast speedup (views on):  %.2fx engine self time over the reference arm\n"
    t.unixbench_speedup;
  pr "  fast speedup (views off): %.2fx engine self time over the reference arm\n\n"
    t.unixbench_speedup_noviews;
  pr "httperf batch (apache view):\n";
  List.iter arm_line t.httperf;
  pr "  fast speedup: %.2fx engine self time over the reference arm\n\n"
    t.httperf_speedup;
  pr "syscall loop, cold TLB: %d instr\n" t.cold_instructions;
  pr "syscall loop, warm TLB: %d instr\n" t.warm_instructions;
  Buffer.contents buf
