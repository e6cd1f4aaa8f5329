(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Table I, Table II, Figs. 3-7), plus the engine,
   fleet, chaos, migration and telemetry arms.  Every host time it
   reports comes from a Fc_obs.Layers accountant (the perf arm).

   Usage:
     bench/main.exe                 run everything
     bench/main.exe table1 fig6     run a subset
     bench/main.exe --fast          smaller fig6, chaos, fleet and migrate *)

module Profiles = Fc_benchkit.Profiles
module J = Fc_obs.Jsonx

let line = String.make 78 '='
let banner name = Printf.printf "\n%s\n%s\n%s\n%!" line name line

(* Structured results, written as BENCH_results.json at the end of the
   run — the artifact the CI drift checker (bench/check.exe) gates on. *)
let results : (string * J.t) list ref = ref []
let record name j = results := (name, j) :: !results

(* Guest panics the paper configuration should never produce.  Expected
   deaths (attack payloads, governor-off ablation arms, the ungoverned
   chaos arm) are reported inline and do not land here; anything that
   does fails the whole run. *)
let unexpected_panics : string list ref = ref []

let unexpected_panic fmt =
  Printf.ksprintf (fun s -> unexpected_panics := s :: !unexpected_panics) fmt

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Experiments                                                         *)
(* ------------------------------------------------------------------ *)

let table1 profiles =
  banner "Table I: Similarity Matrix for Applications' Kernel Views";
  let t = Fc_benchkit.Table1.compute profiles in
  print_string (Fc_benchkit.Table1.render t);
  let na, nb, ns = Fc_benchkit.Table1.min_similarity t in
  Printf.printf
    "\nmost dissimilar: %s vs %s = %.1f%%  (paper: top vs firefox, 33.6%%)\n" na
    nb (100. *. ns);
  let xa, xb, xs = Fc_benchkit.Table1.max_similarity t in
  Printf.printf "most similar:    %s vs %s = %.1f%%  (paper: eog vs totem, 86.5%%)\n"
    xa xb (100. *. xs);
  let pair a b s =
    J.Obj [ ("a", J.String a); ("b", J.String b); ("similarity", J.Float s) ]
  in
  record "table1"
    (J.Obj
       [
         ("min_similarity", pair na nb ns); ("max_similarity", pair xa xb xs);
       ])

let table2 profiles =
  banner "Table II: Security Evaluation Against a Spectrum of User/Kernel Malware";
  let rows = Fc_benchkit.Table2.run_all profiles in
  print_string (Fc_benchkit.Table2.render rows);
  print_newline ();
  print_endline (Fc_benchkit.Table2.summary rows);
  let count f = List.length (List.filter f rows) in
  record "table2"
    (J.Obj
       [
         ("attacks", J.Int (List.length rows));
         ( "per_app_detected",
           J.Int
             (count (fun r -> r.Fc_benchkit.Table2.per_app.Fc_benchkit.Detect.detected))
         );
         ( "union_detected",
           J.Int
             (count (fun r -> r.Fc_benchkit.Table2.union.Fc_benchkit.Detect.detected))
         );
       ])

let fig3 profiles =
  banner "Fig. 3: Cross-View Kernel Code Recovery (lazy vs instant)";
  let r = Fc_benchkit.Fig3.run profiles in
  print_string (Fc_benchkit.Fig3.render r);
  (match r.Fc_benchkit.Fig3.panic with
  | Some m -> unexpected_panic "fig3: %s" m
  | None -> ());
  record "fig3"
    (J.Obj
       [
         ("completed", J.Bool r.Fc_benchkit.Fig3.completed);
         ( "panic",
           match r.Fc_benchkit.Fig3.panic with
           | Some m -> J.String m
           | None -> J.Null );
         ( "lazy_recovered",
           J.List
             (List.map (fun s -> J.String s) r.Fc_benchkit.Fig3.lazy_recovered)
         );
         ( "instant_recovered",
           J.List
             (List.map (fun s -> J.String s) r.Fc_benchkit.Fig3.instant_recovered)
         );
       ])

let fig4 profiles =
  banner "Fig. 4: Attack Pattern of Injectso's Payload";
  print_string (Fc_benchkit.Fig4.render (Fc_benchkit.Fig4.run profiles))

let fig5 profiles =
  banner "Fig. 5: Attack Pattern of KBeast Rootkit";
  print_string (Fc_benchkit.Fig5.render (Fc_benchkit.Fig5.run profiles))

let fig6 ~fast profiles =
  banner "Fig. 6: Normalized System Performance (UnixBench) + Frame Sharing";
  let view_counts = if fast then Some [ 1; 2; 5; 11 ] else None in
  let t = Fc_benchkit.Fig6.run ?view_counts profiles in
  print_string (Fc_benchkit.Fig6.render t);
  let open Fc_benchkit.Fig6 in
  let sh = t.sharing in
  let mode (m : mode_stats) =
    J.Obj
      [
        ("frames_allocated", J.Int m.frames_allocated);
        ("recoveries", J.Int m.recoveries);
        ("recovered_bytes", J.Int m.recovered_bytes);
        ("cow_breaks", J.Int m.cow_breaks);
      ]
  in
  record "fig6"
    (J.Obj
       [
         ( "perf",
           J.List
             (List.map
                (fun (p : Fc_benchkit.Unixbench.fig6_point) ->
                  J.Obj
                    [
                      ("views_loaded", J.Int p.Fc_benchkit.Unixbench.views_loaded);
                      ("overall", J.Float p.Fc_benchkit.Unixbench.overall);
                    ])
                t.perf) );
         ( "sharing",
           J.Obj
             [
               ("views", J.Int sh.views);
               ("view_pages", J.Int sh.view_pages);
               ("shared", mode sh.shared);
               ("unshared", mode sh.unshared);
               ("frames_saved", J.Int sh.frames_saved);
               ("reduction", J.Float sh.reduction);
               ("parity", J.Bool sh.parity);
             ] );
       ])

let fig7 profiles =
  banner "Fig. 7: I/O Performance for Apache Web Server (httperf)";
  let t = Fc_benchkit.Fig7.run profiles in
  print_string (Fc_benchkit.Fig7.render t);
  record "fig7"
    (J.Obj
       [
         ("base_capacity", J.Float t.Fc_benchkit.Fig7.io.Fc_benchkit.Httperf.base_capacity);
         ("fc_capacity", J.Float t.Fc_benchkit.Fig7.io.Fc_benchkit.Httperf.fc_capacity);
         ("view_pages", J.Int t.Fc_benchkit.Fig7.view_pages);
         ("view_frames", J.Int t.Fc_benchkit.Fig7.view_frames);
         ("reduction", J.Float t.Fc_benchkit.Fig7.reduction);
       ])

(* A deterministic single-guest run (the [top] workload under its own
   enforced view): its switch and recovery counters are the drift canary
   the CI gate pins. *)
let smoke profiles =
  banner "Smoke: enforced top run (drift canary)";
  let image = Profiles.image profiles in
  let app = Fc_apps.App.find_exn "top" in
  let os = Fc_machine.Os.create ~config:(Fc_apps.App.os_config app) image in
  (* arm before attach so view-build spans land in the timeline; emission
     charges no cycles, so the pinned counters below are unaffected *)
  Fc_obs.Trace.arm ~capacity:65536 (Fc_obs.Obs.trace (Fc_machine.Os.obs os));
  let hyp = Fc_hypervisor.Hypervisor.attach os in
  let fc = Fc_core.Facechange.enable hyp in
  ignore (Fc_machine.Os.spawn os ~name:"top" (app.Fc_apps.App.script 3));
  ignore (Fc_core.Facechange.load_view fc (Profiles.config_of profiles "top"));
  (try Fc_machine.Os.run ~max_rounds:50_000 os
   with Fc_machine.Os.Guest_panic m ->
     Printf.printf "GUEST PANIC: %s\n" m;
     unexpected_panic "smoke: %s" m);
  let stats = Fc_core.Stats.capture fc in
  Format.printf "%a@." Fc_core.Stats.pp stats;
  let timeline =
    Fc_obs.Export.timeline_to_json
      ~extra:[ ("stats", Fc_core.Stats.to_json stats) ]
      (Fc_obs.Obs.trace (Fc_machine.Os.obs os))
  in
  let oc = open_out "BENCH_timeline.json" in
  output_string oc (J.to_string ~pretty:true timeline);
  output_char oc '\n';
  close_out oc;
  Printf.printf "timeline artifact written to BENCH_timeline.json\n";
  record "smoke"
    (J.Obj
       (List.map
          (fun (k, v) -> (k, J.Int v))
          (Fc_core.Stats.fields stats)))

let ablations profiles =
  banner "Ablations: the design choices of Section III";
  let sections = Fc_benchkit.Ablation.run_all profiles in
  print_string (Fc_benchkit.Ablation.render sections);
  (* an ablation arm marked "(paper)" runs the intended configuration:
     a guest death there is a regression, not a demonstration *)
  List.iter
    (fun (title, rows) ->
      List.iter
        (fun (r : Fc_benchkit.Ablation.row) ->
          if contains r.Fc_benchkit.Ablation.label "(paper)" then
            List.iter
              (fun (_, v) ->
                if contains v "GUEST PANIC" then
                  unexpected_panic "ablation %s / %s: %s" title
                    r.Fc_benchkit.Ablation.label v)
              r.Fc_benchkit.Ablation.metrics)
        rows)
    sections

let chaos ~fast profiles =
  banner "Chaos: seeded fault matrix vs the recovery-storm governor";
  let plans = if fast then 30 else 100 in
  let governed = Fc_benchkit.Chaos.run ~plans profiles in
  print_string (Fc_benchkit.Chaos.render governed);
  print_newline ();
  (* The ungoverned arm reproduces the paper's fragility, so it is where
     panics live: run it in time-travel mode and keep the first few
     last-boundary snapshots as replayable [.fcsnap] artifacts —
     [facechange replay FILE] re-executes just the failing window. *)
  let repro : (int * string * string) list ref = ref [] in
  let on_panic ~seed ~panic snap =
    if List.length !repro < 3 then begin
      let file = Printf.sprintf "BENCH_repro_seed%d.fcsnap" seed in
      Fc_snapshot.Snapshot.save snap file;
      repro := (seed, panic, file) :: !repro
    end
  in
  let ungoverned =
    Fc_benchkit.Chaos.run ~plans ~governed:false ~snapshot_every:100 ~on_panic
      profiles
  in
  print_string (Fc_benchkit.Chaos.render ungoverned);
  List.iter
    (fun (seed, panic, file) ->
      Printf.printf "repro snapshot for seed %d (%s) written to %s\n" seed
        panic file)
    (List.rev !repro);
  let open Fc_benchkit.Chaos in
  if governed.s_panics > 0 then
    unexpected_panic "chaos (governed): %d guest panic(s)" governed.s_panics;
  if governed.s_wedged > 0 then
    unexpected_panic "chaos (governed): %d wedged run(s)" governed.s_wedged;
  let json =
    J.Obj
      [
        ("schema_version", J.Int Fc_obs.Export.schema_version);
        ("seed", J.Int 1);
        ("plans", J.Int plans);
        ("governed", summary_to_json governed);
        ("ungoverned", summary_to_json ungoverned);
        ( "repro_snapshots",
          J.List
            (List.rev_map
               (fun (seed, panic, file) ->
                 J.Obj
                   [
                     ("seed", J.Int seed);
                     ("panic", J.String panic);
                     ("file", J.String file);
                   ])
               !repro) );
      ]
  in
  let oc = open_out "BENCH_chaos.json" in
  output_string oc (J.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "chaos artifact written to BENCH_chaos.json\n";
  record "chaos"
    (J.Obj
       [
         ("plans", J.Int plans);
         ("governed", summary_to_json governed);
         ("ungoverned", summary_to_json ungoverned);
       ])

let perf profiles =
  banner "Perf: reference vs fast engine, host time by layer";
  let t = Fc_benchkit.Perf.run profiles in
  print_string (Fc_benchkit.Perf.render t);
  let json =
    J.Obj
      [
        ("schema_version", J.Int Fc_benchkit.Perf.schema_version);
        ("perf", Fc_benchkit.Perf.to_json t);
      ]
  in
  let oc = open_out "BENCH_perf.json" in
  output_string oc (J.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "perf artifact written to BENCH_perf.json\n";
  record "perf"
    (J.Obj
       [
         ("unixbench_speedup", J.Float t.Fc_benchkit.Perf.unixbench_speedup);
         ( "unixbench_speedup_noviews",
           J.Float t.Fc_benchkit.Perf.unixbench_speedup_noviews );
         ("httperf_speedup", J.Float t.Fc_benchkit.Perf.httperf_speedup);
       ])

let fleet ~fast profiles =
  banner "Fleet: guest fleets sharded across OCaml 5 domains";
  let t = Fc_benchkit.Fleet.run ~fast profiles in
  print_string (Fc_benchkit.Fleet.render t);
  (* the acceptance bar: one fleet, any domain count, same merged
     fingerprint — sharding must be behavior-invisible *)
  let fps =
    List.sort_uniq String.compare
      (List.map
         (fun (c : Fc_benchkit.Fleet.cell) ->
           c.Fc_benchkit.Fleet.c_report.Fc_host.Fleet.r_fingerprint)
         t.Fc_benchkit.Fleet.f_pinned)
  in
  if List.length fps > 1 then
    unexpected_panic "fleet: merged fingerprint diverged across domain counts";
  let json =
    J.Obj
      [
        ("schema_version", J.Int Fc_obs.Export.schema_version);
        ("fast", J.Bool fast);
        ("fleet", Fc_benchkit.Fleet.to_json t);
      ]
  in
  let oc = open_out "BENCH_fleet.json" in
  output_string oc (J.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "fleet artifact written to BENCH_fleet.json\n";
  record "fleet"
    (J.Obj
       [
         ("pinned_guests", J.Int t.Fc_benchkit.Fleet.f_pinned_guests);
         ("fingerprints_identical", J.Bool (List.length fps <= 1));
       ])

let migrate ~fast profiles =
  banner "Migrate: live migration (pre-copy dirty pages, wire-format handoff)";
  let t = Fc_benchkit.Migration.run ~fast profiles in
  print_string (Fc_benchkit.Migration.render t);
  if not t.Fc_benchkit.Migration.g_parity_ok then
    unexpected_panic "migrate: migrated digest diverged from the control run";
  if t.Fc_benchkit.Migration.g_panics > 0 then
    unexpected_panic "migrate: %d guest panic(s) under governed migration"
      t.Fc_benchkit.Migration.g_panics;
  let json =
    J.Obj
      [
        ("schema_version", J.Int Fc_obs.Export.schema_version);
        ("fast", J.Bool fast);
        ("migrate", Fc_benchkit.Migration.to_json t);
      ]
  in
  let oc = open_out "BENCH_migrate.json" in
  output_string oc (J.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "migrate artifact written to BENCH_migrate.json\n";
  record "migrate"
    (J.Obj
       [
         ("parity_ok", J.Bool t.Fc_benchkit.Migration.g_parity_ok);
         ("panics", J.Int t.Fc_benchkit.Migration.g_panics);
         ("rows", J.Int (List.length t.Fc_benchkit.Migration.g_rows));
       ])

(* ------------------------------------------------------------------ *)
(* Telemetry: armed fleet + engine matrix + flamegraph profile         *)
(* ------------------------------------------------------------------ *)

let telemetry profiles =
  banner "Telemetry: time-series sampling, profiler and exposition";
  let t = Fc_benchkit.Telemetry.run profiles in
  print_string (Fc_benchkit.Telemetry.render t);
  (* the acceptance bars: arming the probe must not move the fleet
     fingerprint, and the telemetry itself must fingerprint identically
     across domain counts and engine arms *)
  let cell_fp (c : Fc_benchkit.Fleet.cell) =
    c.Fc_benchkit.Fleet.c_report.Fc_host.Fleet.r_fingerprint
  in
  let armed_fps =
    List.sort_uniq String.compare
      (List.map cell_fp t.Fc_benchkit.Telemetry.t_armed)
  in
  if armed_fps <> [ cell_fp t.Fc_benchkit.Telemetry.t_disarmed ] then
    unexpected_panic
      "telemetry: armed fleet fingerprint differs from the disarmed control";
  let arm_fps =
    List.sort_uniq String.compare
      (List.map
         (fun (a : Fc_benchkit.Telemetry.engine_arm) ->
           a.Fc_benchkit.Telemetry.ea_series_fp
           ^ "/" ^ a.Fc_benchkit.Telemetry.ea_sampler_fp)
         t.Fc_benchkit.Telemetry.t_matrix)
  in
  if List.length arm_fps > 1 then
    unexpected_panic
      "telemetry: series/sampler fingerprints diverged across engine arms";
  let json =
    J.Obj
      [
        ("schema_version", J.Int Fc_obs.Export.schema_version);
        ("telemetry", Fc_benchkit.Telemetry.to_json t);
      ]
  in
  let oc = open_out "BENCH_telemetry.json" in
  output_string oc (J.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  let oc = open_out "BENCH_profile.folded" in
  output_string oc (Fc_benchkit.Telemetry.folded t);
  close_out oc;
  Printf.printf
    "telemetry artifacts written to BENCH_telemetry.json and \
     BENCH_profile.folded\n";
  record "telemetry"
    (J.Obj
       [
         ("armed_matches_disarmed", J.Bool (List.length armed_fps = 1));
         ("engine_arms_identical", J.Bool (List.length arm_fps <= 1));
         ( "profile_samples",
           J.Int
             t.Fc_benchkit.Telemetry.t_profile
               .Fc_benchkit.Telemetry.pr_samples );
       ])

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all_experiments =
  [ "smoke"; "table1"; "table2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7";
    "ablations"; "chaos"; "perf"; "fleet"; "migrate"; "telemetry" ]

let write_results path ~fast chosen =
  let json =
    J.Obj
      [
        ("schema_version", J.Int Fc_obs.Export.schema_version);
        ("fast", J.Bool fast);
        ("experiments", J.List (List.map (fun e -> J.String e) chosen));
        ("results", J.Obj (List.rev !results));
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "results written to %s\n" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let fast = List.mem "--fast" args in
  let rec split_out acc = function
    | "--out" :: path :: rest -> (Some path, List.rev_append acc rest)
    | a :: rest -> split_out (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let out, args = split_out [] args in
  let out = Option.value out ~default:"BENCH_results.json" in
  let chosen = List.filter (fun a -> a <> "--fast") args in
  let chosen = if chosen = [] then all_experiments else chosen in
  List.iter
    (fun e ->
      if not (List.mem e all_experiments) then begin
        Printf.eprintf "unknown experiment %s (available: %s, --fast, --out FILE)\n"
          e
          (String.concat " " all_experiments);
        exit 2
      end)
    chosen;
  Printf.printf "FACE-CHANGE reproduction benchmark harness\n";
  Printf.printf "building the synthetic kernel image...\n%!";
  let image = Fc_kernel.Image.build_exn () in
  Printf.printf "profiling the 12 applications (Table I workloads)...\n%!";
  let profiles = Profiles.compute image in
  List.iter
    (fun e ->
      match e with
      | "smoke" -> smoke profiles
      | "table1" -> table1 profiles
      | "table2" -> table2 profiles
      | "fig3" -> fig3 profiles
      | "fig4" -> fig4 profiles
      | "fig5" -> fig5 profiles
      | "fig6" -> fig6 ~fast profiles
      | "fig7" -> fig7 profiles
      | "ablations" -> ablations profiles
      | "chaos" -> chaos ~fast profiles
      | "perf" -> perf profiles
      | "fleet" -> fleet ~fast profiles
      | "migrate" -> migrate ~fast profiles
      | "telemetry" -> telemetry profiles
      | _ -> assert false)
    chosen;
  write_results out ~fast chosen;
  match List.rev !unexpected_panics with
  | [] -> Printf.printf "\ndone.\n"
  | ps ->
      List.iter (Printf.eprintf "unexpected guest panic: %s\n") ps;
      Printf.eprintf "\nFAILED: %d unexpected guest panic(s)\n" (List.length ps);
      exit 1
