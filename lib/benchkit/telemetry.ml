(* The telemetry benchmark arm ([bench/main.exe -- telemetry]): prove the
   continuous-telemetry layer deterministic and behavior-invisible, and
   produce the artifacts the CLI renders (`facechange top`, flamegraphs).

   Three sections, all gated by bench/check.exe BENCH_telemetry.json:

   - armed fleet: the pinned 40-guest cell re-run at 1/2/4 domains with
     the probe armed on every guest, plus one disarmed control cell.
     The fleet fingerprint must match the disarmed one (arming costs no
     guest-visible work) and the merged telemetry fingerprint must match
     across domain counts (the merge is shard-independent).

   - engine matrix: one fixed chaos-style guest run on the reference and
     the fast engine with the probe armed.  The series and profiler
     fingerprints must be identical across the two — the ticker fires at
     instruction marks, and instruction retirement is exactly what the
     differential harness pins.

   - profile: a unixbench-style armed run producing the folded-stack
     profile (BENCH_profile.folded) and a wall-clocked series for
     `facechange top`. *)

module Os = Fc_machine.Os
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Stats = Fc_core.Stats
module App = Fc_apps.App
module Fault = Fc_faults.Fault
module Injector = Fc_faults.Injector
module HFleet = Fc_host.Fleet
module Pool = Fc_host.Pool
module Timeseries = Fc_obs.Timeseries
module Sampler = Fc_obs.Sampler
module J = Fc_obs.Jsonx

type engine_arm = {
  ea_name : string;  (** ["reference"] or ["fast"] *)
  ea_outcome : string;
  ea_intervals : int;
  ea_samples : int;
  ea_series_fp : string;  (** {!Timeseries.fingerprint}, engine excludes *)
  ea_sampler_fp : string;  (** {!Sampler.fingerprint} *)
  ea_resum_errors : string list;
}

type profile = {
  pr_workload : string;
  pr_period : int;
  pr_ticks : int;
  pr_samples : int;
  pr_vcpus : int;
  pr_outcome : string;
  pr_series : Timeseries.series;
  pr_folds : Sampler.fold list;
  pr_resum_errors : string list;
}

type t = {
  t_seed : int;
  t_period : int;
  t_parallel : bool;
  t_armed : Fleet.cell list;  (** pinned cell, armed, at 1/2/4 domains *)
  t_disarmed : Fleet.cell;  (** the control: same cell, probe off *)
  t_matrix : engine_arm list;
  t_profile : profile;
}

(* ------------------------------------------------------------------ *)
(* Engine matrix                                                       *)
(* ------------------------------------------------------------------ *)

(* One fixed chaos-style guest (enforced app + full-view companion +
   governed fault plan), probe armed, on the given engine.  Everything
   except the engine is constant, so any fingerprint drift across arms
   is the engine showing through the telemetry. *)
let engine_arm profiles ~seed engine =
  let name = "apache" in
  let plan = Fault.gen ~seed ~rounds:100 ~n:5 in
  let app = App.find_exn name in
  let os =
    Os.create ~config:(App.os_config app) ~engine (Profiles.image profiles)
  in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable ~governor:Chaos.chaos_policy hyp in
  let (_ : int) = Facechange.load_view fc (Profiles.config_of profiles name) in
  let (_ : Process.t) = Os.spawn os ~name (app.App.script 3) in
  let companion = App.find_exn "top" in
  let (_ : Process.t) =
    Os.spawn os ~name:"matrix-companion" (companion.App.script 2)
  in
  let probe = Probe.arm ~os ~hyp ~fc () in
  let inj = Injector.arm ~os ~hyp ~fc plan in
  let outcome =
    match Os.run ~max_rounds:12_000 os with
    | () -> "ok"
    | exception Os.Guest_panic m -> "panic: " ^ m
  in
  Injector.disarm inj;
  let r = Probe.finish probe in
  {
    ea_name = Os.engine_name engine;
    ea_outcome = outcome;
    ea_intervals = r.Probe.r_series.Timeseries.s_intervals;
    ea_samples = r.Probe.r_samples;
    ea_series_fp = Timeseries.fingerprint r.Probe.r_series;
    ea_sampler_fp = Sampler.fingerprint r.Probe.r_folds;
    ea_resum_errors = r.Probe.r_resum_errors;
  }

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

let profile_subtest = "Shell Scripts (1 concurrent)"

(* Unixbench's run_one shape — quiet bench config, one resident under
   its enforced view, the benchmark processes unbound — with the probe
   armed and wall-clocked for `facechange top`. *)
let run_profile profiles =
  let subtest =
    List.find
      (fun s -> s.Unixbench.st_name = profile_subtest)
      Unixbench.subtests
  in
  let os =
    Os.create ~config:Unixbench.bench_config (Profiles.image profiles)
  in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable hyp in
  let (_ : int) = Facechange.load_view fc (Profiles.config_of profiles "top") in
  let resident = Os.spawn os ~name:"top" Unixbench.resident_script in
  let probe = Probe.arm ~wall:Unix.gettimeofday ~os ~hyp ~fc () in
  let outcome =
    match
      Os.run ~until:(fun _ -> not (Process.is_ready resident)) os;
      let bench =
        List.map
          (fun (name, script) -> Os.spawn os ~name script)
          subtest.Unixbench.procs
      in
      Os.run ~until:(fun _ -> List.for_all Process.is_exited bench) os
    with
    | () -> "ok"
    | exception Os.Guest_panic m -> "panic: " ^ m
  in
  let r = Probe.finish probe in
  {
    pr_workload = profile_subtest;
    pr_period = Probe.default_period;
    pr_ticks = r.Probe.r_ticks;
    pr_samples = r.Probe.r_samples;
    pr_vcpus = r.Probe.r_vcpus;
    pr_outcome = outcome;
    pr_series = r.Probe.r_series;
    pr_folds = r.Probe.r_folds;
    pr_resum_errors = r.Probe.r_resum_errors;
  }

(* ------------------------------------------------------------------ *)
(* The arm                                                             *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 7) profiles =
  let period = Probe.default_period in
  let armed =
    List.map
      (fun domains ->
        Fleet.run_cell ~telemetry:period profiles ~seed ~domains
          ~guests:Fleet.pinned_guests)
      Fleet.pinned_domains
  in
  let disarmed =
    Fleet.run_cell profiles ~seed ~domains:1 ~guests:Fleet.pinned_guests
  in
  let matrix =
    List.map (engine_arm profiles ~seed:1021) [ Os.Reference; Os.Fast ]
  in
  {
    t_seed = seed;
    t_period = period;
    t_parallel = Pool.parallel;
    t_armed = armed;
    t_disarmed = disarmed;
    t_matrix = matrix;
    t_profile = run_profile profiles;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let telemetry_to_json (tel : HFleet.telemetry) =
  let s = tel.HFleet.t_series in
  J.Obj
    [
      ("period", J.Int s.Timeseries.s_period);
      ("intervals", J.Int s.Timeseries.s_intervals);
      ("dropped", J.Int s.Timeseries.s_dropped);
      ("samples", J.Int tel.HFleet.t_samples);
      ("stacks", J.Int (List.length tel.HFleet.t_folds));
      ("series_fingerprint", J.String (Timeseries.fingerprint s));
      ("sampler_fingerprint", J.String (Sampler.fingerprint tel.HFleet.t_folds));
      ( "totals",
        J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Timeseries.totals s)) );
    ]

let cell_to_json c =
  let r = c.Fleet.c_report in
  J.Obj
    ([
       ("domains", J.Int r.HFleet.r_domains);
       ("guests", J.Int r.HFleet.r_guests);
       ("fingerprint", J.String r.HFleet.r_fingerprint);
       ("instructions", J.Int r.HFleet.r_instructions);
       ("cycles", J.Int r.HFleet.r_cycles);
       ("context_switches", J.Int r.HFleet.r_merged.Stats.context_switches);
       ("view_switches", J.Int r.HFleet.r_merged.Stats.view_switches);
       ("recoveries", J.Int r.HFleet.r_merged.Stats.recoveries);
       ("recovered_bytes", J.Int r.HFleet.r_merged.Stats.recovered_bytes);
       ("degradations", J.Int r.HFleet.r_merged.Stats.degradations);
       ("quarantines", J.Int r.HFleet.r_merged.Stats.quarantines);
       ("total_frames", J.Int r.HFleet.r_total_frames);
       ("unique_frames", J.Int r.HFleet.r_unique_frames);
       ("panics", J.Int r.HFleet.r_panics);
       ("wedged", J.Int r.HFleet.r_wedged);
     ]
    @
    match r.HFleet.r_telemetry with
    | None -> []
    | Some tel -> [ ("telemetry", telemetry_to_json tel) ])

let arm_to_json a =
  J.Obj
    [
      ("arm", J.String a.ea_name);
      ("outcome", J.String a.ea_outcome);
      ("intervals", J.Int a.ea_intervals);
      ("samples", J.Int a.ea_samples);
      ("series_fingerprint", J.String a.ea_series_fp);
      ("sampler_fingerprint", J.String a.ea_sampler_fp);
      ("resum_errors", J.List (List.map (fun e -> J.String e) a.ea_resum_errors));
    ]

let profile_to_json p =
  J.Obj
    [
      ("workload", J.String p.pr_workload);
      ("period", J.Int p.pr_period);
      ("ticks", J.Int p.pr_ticks);
      ("samples", J.Int p.pr_samples);
      ("vcpus", J.Int p.pr_vcpus);
      ("outcome", J.String p.pr_outcome);
      ("intervals", J.Int p.pr_series.Timeseries.s_intervals);
      ("dropped", J.Int p.pr_series.Timeseries.s_dropped);
      ("stacks", J.Int (List.length p.pr_folds));
      ("fold_total", J.Int (Sampler.total p.pr_folds));
      ("resum_errors",
       J.List (List.map (fun e -> J.String e) p.pr_resum_errors));
      ("series", Fc_obs.Export.timeseries_to_json p.pr_series);
      (* folds ride in the artifact too (not only BENCH_profile.folded)
         so `facechange top` can rank comms from the JSON alone *)
      ( "folds",
        J.List
          (List.map
             (fun f ->
               J.Obj
                 [
                   ("stack", J.String f.Sampler.f_stack);
                   ("count", J.Int f.Sampler.f_count);
                 ])
             p.pr_folds) );
    ]

let to_json t =
  J.Obj
    [
      ("seed", J.Int t.t_seed);
      ("period", J.Int t.t_period);
      ("parallel_backend", J.Bool t.t_parallel);
      ("armed_cells", J.List (List.map cell_to_json t.t_armed));
      ("disarmed_cell", cell_to_json t.t_disarmed);
      ("matrix", J.List (List.map arm_to_json t.t_matrix));
      ("profile", profile_to_json t.t_profile);
    ]

let folded t = Sampler.folded_text t.t_profile.pr_folds

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "Telemetry: period=%d instructions/interval (backend: %s)\n"
       t.t_period
       (if t.t_parallel then "OCaml 5 Domains" else "sequential fallback"));
  List.iter
    (fun c ->
      let r = c.Fleet.c_report in
      match r.HFleet.r_telemetry with
      | None -> ()
      | Some tel ->
          let s = tel.HFleet.t_series in
          Buffer.add_string buf
            (Printf.sprintf
               "  armed d=%-2d  intervals=%-3d samples=%-6d stacks=%-4d \
                series_fp=%s\n"
               r.HFleet.r_domains s.Timeseries.s_intervals
               tel.HFleet.t_samples
               (List.length tel.HFleet.t_folds)
               (String.sub (Timeseries.fingerprint s) 0 12)))
    t.t_armed;
  let armed_fp =
    List.sort_uniq String.compare
      (List.map (fun c -> c.Fleet.c_report.HFleet.r_fingerprint) t.t_armed)
  in
  let invisible =
    armed_fp = [ t.t_disarmed.Fleet.c_report.HFleet.r_fingerprint ]
  in
  Buffer.add_string buf
    (Printf.sprintf "  armed vs disarmed fleet fingerprint: %s\n"
       (if invisible then "IDENTICAL (probe is behavior-invisible)"
        else "DIVERGED"));
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf
           "  matrix %-13s %-4s intervals=%-3d samples=%-5d fp=%s/%s\n"
           a.ea_name a.ea_outcome a.ea_intervals a.ea_samples
           (String.sub a.ea_series_fp 0 12)
           (String.sub a.ea_sampler_fp 0 12)))
    t.t_matrix;
  let p = t.t_profile in
  Buffer.add_string buf
    (Printf.sprintf
       "  profile %-28s ticks=%-3d samples=%-4d (%d vcpu) stacks=%d\n"
       p.pr_workload p.pr_ticks p.pr_samples p.pr_vcpus
       (List.length p.pr_folds));
  Buffer.contents buf
