module Os = Fc_machine.Os
module Action = Fc_machine.Action
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange

type subtest = { st_name : string; procs : (string * Action.t list) list }

let s v = Action.Syscall v
let rep = Action.repeat
let single name script = { st_name = name; procs = [ ("unixbench", script) ] }

let subtests =
  [
    single "Dhrystone 2" (rep 100 [ Action.Compute 30_000 ] @ [ Action.Exit ]);
    single "Double-Precision Whetstone"
      (rep 90 [ Action.Compute 35_000 ] @ [ Action.Exit ]);
    single "Execl Throughput" (rep 160 [ s "execve"; Action.Compute 500 ] @ [ Action.Exit ]);
    single "File Copy 1024 bufsize"
      ([ s "open:ext4"; s "open:ext4" ]
      @ rep 250 [ s "read:ext4"; s "write:ext4" ]
      @ [ s "close"; s "close"; Action.Exit ]);
    single "Pipe Throughput"
      ([ s "pipe" ] @ rep 400 [ s "write:pipe"; s "read:pipe" ] @ [ Action.Exit ]);
    {
      st_name = "Pipe-based Context Switching";
      procs =
        (let script =
           [ s "pipe" ]
           @ rep 80 [ s "write:pipe"; s "poll:pipe"; s "read:pipe" ]
           @ [ Action.Exit ]
         in
         [ ("ubench_ctx1", script); ("ubench_ctx2", script) ]);
    };
    single "Process Creation" (rep 150 [ s "fork"; s "waitpid" ] @ [ Action.Exit ]);
    single "Shell Scripts (1 concurrent)"
      (rep 60
         [ s "fork"; s "execve"; s "open:ext4"; s "read:ext4"; s "pipe";
           s "write:pipe"; s "read:pipe"; s "waitpid"; s "close" ]
      @ [ Action.Exit ]);
    single "System Call Overhead"
      (rep 1000 [ s "getpid"; s "getuid" ] @ [ Action.Exit ]);
  ]

let subtest_names = List.map (fun t -> t.st_name) subtests

(* A quiet, deterministic benchmarking environment: timer only. *)
let bench_config =
  (* quantum 32: a realistic timeslice's worth of work between
     involuntary switches *)
  { Os.default_config with timer_period = 60_000; background_irqs = []; quantum = 32 }

(* A mostly idle resident application: wakes on timers, sleeps again —
   what the paper's co-resident Table I applications do while UnixBench
   runs. *)
let resident_script =
  Action.repeat 2_000 [ Action.Compute 600; Action.Sleep 300 ]
  @ [ Action.Exit ]

let run_one ?engine ?layers image ~views ~residents ~enabled subtest =
  let os = Os.create ~config:bench_config ?engine image in
  let timed = Fc_obs.Layers.follow layers (Fc_obs.Obs.trace (Os.obs os)) in
  if enabled then begin
    let hyp = Hyp.attach os in
    let fc = Facechange.enable hyp in
    List.iter (fun cfg -> ignore (Facechange.load_view fc cfg)) views
  end;
  let resident_procs =
    List.map (fun name -> Os.spawn os ~name resident_script) residents
  in
  (* let the residents settle into their sleep pattern before measuring *)
  if resident_procs <> [] then
    timed (fun () ->
        Os.run
          ~until:(fun _ ->
            List.for_all (fun p -> not (Process.is_ready p)) resident_procs)
          os);
  let bench =
    List.map (fun (name, script) -> Os.spawn os ~name script) subtest.procs
  in
  let before = Os.cycles os in
  timed (fun () ->
      Os.run ~until:(fun _ -> List.for_all Process.is_exited bench) os);
  let elapsed = Os.cycles os - before in
  (os, 1_000_000_000. /. float_of_int (max 1 elapsed))

let run_suite image ~views ~enabled =
  let residents = List.map (fun c -> c.Fc_profiler.View_config.app) views in
  List.map
    (fun st -> (st.st_name, snd (run_one image ~views ~residents ~enabled st)))
    subtests

type fig6_point = {
  views_loaded : int;
  overall : float;
  per_test : (string * float) list;
}

(* [1.] for an empty list: the neutral normalized index, and no 0/0. *)
let geometric_mean = function
  | [] -> 1.
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. xs
        /. float_of_int (List.length xs))

(* The paper loads the Table I views one at a time, excluding gzip
   ("not a long running application"). *)
let fig6_apps =
  [ "apache"; "firefox"; "totem"; "gvim"; "vsftpd"; "top"; "tcpdump"; "mysqld";
    "bash"; "sshd"; "eog" ]

let fig6 ?view_counts profiles =
  let image = Profiles.image profiles in
  let counts =
    match view_counts with
    | Some l -> l
    | None -> List.init (List.length fig6_apps) (fun i -> i + 1)
  in
  let point views_loaded =
    let views =
      List.filteri (fun i _ -> i < views_loaded) fig6_apps
      |> List.map (Profiles.config_of profiles)
    in
    (* normalize against the same resident mix without FACE-CHANGE, so the
       curve isolates the hypervisor's own overhead *)
    let residents = List.map (fun c -> c.Fc_profiler.View_config.app) views in
    let per_test =
      List.map
        (fun st ->
          let _, base = run_one image ~views:[] ~residents ~enabled:false st in
          let _, fc = run_one image ~views ~residents ~enabled:true st in
          (* a subtest that scored 0 at baseline has no meaningful ratio;
             report the neutral 1.0 rather than a NaN/infinity *)
          (st.st_name, if base <= 0. then 1. else fc /. base))
        subtests
    in
    { views_loaded; overall = geometric_mean (List.map snd per_test); per_test }
  in
  { views_loaded = 0; overall = 1.0;
    per_test = List.map (fun n -> (n, 1.0)) subtest_names }
  :: List.map point counts

let render points =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Normalized UnixBench index vs number of kernel views loaded (cf. paper Fig. 6)\n";
  Buffer.add_string buf
    "(baseline = FACE-CHANGE disabled, same resident applications = 1.000)\n\n";
  Buffer.add_string buf (Printf.sprintf "%-6s %-8s\n" "views" "overall");
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%-6s %.3f\n"
           (if p.views_loaded = 0 then "off" else string_of_int p.views_loaded)
           p.overall))
    points;
  (match List.rev (List.filter (fun p -> p.views_loaded > 0) points) with
  | p :: _ ->
      Buffer.add_string buf
        (Printf.sprintf "\nPer-subtest (%d views loaded):\n" p.views_loaded);
      List.iter
        (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-32s %.3f\n" n v))
        p.per_test
  | [] -> ());
  Buffer.contents buf
