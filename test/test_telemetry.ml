(* Unit tests for the continuous-telemetry layer: the delta-encoded
   time series, the sampling-profiler folds, the Prometheus text
   exposition, the [obs.trace_dropped] gauge and the deterministic
   instruction-count ticker.  Cross-engine parity of armed telemetry is
   proven by the differential harness (test_tlb / test_sblocks); the
   end-to-end fleet pins live in bench/pins/telemetry.json, gated by
   bench/check.exe. *)

module Action = Fc_machine.Action
module Process = Fc_machine.Process
module Os = Fc_machine.Os
module Image = Fc_kernel.Image
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module App = Fc_apps.App
module Probe = Fc_benchkit.Probe
module Obs = Fc_obs.Obs
module Trace = Fc_obs.Trace
module Event = Fc_obs.Event
module Metrics = Fc_obs.Metrics
module Timeseries = Fc_obs.Timeseries
module Sampler = Fc_obs.Sampler
module Export = Fc_obs.Export
module J = Fc_obs.Jsonx

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let image = lazy (Image.build_exn ())

(* ---------------- Prometheus sanitization ---------------- *)

let test_prom_name () =
  check_string "plain key" "facechange_fc_view_switches"
    (Export.prom_name ~subsystem:"fc" "view_switches");
  check_string "dots become underscores" "facechange_os_decode_cache_frames"
    (Export.prom_name ~subsystem:"os" "decode.cache_frames");
  check_string "hostile characters collapse to underscores"
    "facechange_a_b_c_d_e_f"
    (Export.prom_name ~subsystem:"a-b" "c d.e/f");
  check_string "colons survive (prometheus allows them)" "facechange_ns_a:b"
    (Export.prom_name ~subsystem:"ns" "a:b")

let test_prom_escape_label () =
  check_string "backslash, quote and newline are escaped" "a\\\"b\\\\c\\nd"
    (Export.prom_escape_label "a\"b\\c\nd");
  check_string "clean values pass through" "top-2.1"
    (Export.prom_escape_label "top-2.1")

(* A tiny registry rendered end-to-end: one counter, one gauge, one
   labeled family, one histogram with observations in two log2 buckets.
   The exposition is golden — format drift must be deliberate. *)
let test_prom_exposition () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~subsystem:"fc" "view_switches" in
  Metrics.add c 3;
  Metrics.gauge m ~subsystem:"obs" "trace_dropped" (fun () -> 7);
  let fam = Metrics.counter_family m ~subsystem:"os" "run_slices" in
  Metrics.add (Metrics.family_counter fam "top") 2;
  Metrics.add (Metrics.family_counter fam "bash") 5;
  let h = Metrics.histogram m ~subsystem:"hyp" "charge_cycles" in
  Metrics.observe h 1;
  Metrics.observe h 3;
  let out = Export.metrics_to_prometheus m in
  let has needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    check_bool (Printf.sprintf "exposition contains %S" needle) true (go 0)
  in
  has "# TYPE facechange_fc_view_switches counter";
  has "facechange_fc_view_switches 3";
  has "# TYPE facechange_obs_trace_dropped gauge";
  has "facechange_obs_trace_dropped 7";
  has "facechange_os_run_slices{app=\"top\"} 2";
  has "facechange_os_run_slices{app=\"bash\"} 5";
  has "# TYPE facechange_hyp_charge_cycles histogram";
  has "facechange_hyp_charge_cycles_bucket{le=\"+Inf\"} 2";
  has "facechange_hyp_charge_cycles_sum 4";
  has "facechange_hyp_charge_cycles_count 2";
  (* one TYPE line per family name, not per member *)
  let count_type =
    let needle = "# TYPE facechange_os_run_slices counter" in
    let nl = String.length needle in
    let n = ref 0 in
    for i = 0 to String.length out - nl do
      if String.sub out i nl = needle then incr n
    done;
    !n
  in
  check_int "one TYPE line for the whole family" 1 count_type

(* ---------------- time series: delta encoding ---------------- *)

let test_series_deltas () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~subsystem:"fc" "recoveries" in
  let g = ref 10 in
  Metrics.gauge m ~subsystem:"obs" "queue" (fun () -> !g);
  let ts = Timeseries.create ~period:100 m in
  Metrics.add c 5;
  Timeseries.tick ts ~instructions:100;
  Metrics.add c 2;
  g := 4;
  Timeseries.tick ts ~instructions:200;
  let s = Timeseries.export ts in
  check_int "two intervals" 2 s.Timeseries.s_intervals;
  check_int "nothing dropped" 0 s.Timeseries.s_dropped;
  let deltas =
    List.map (fun p -> List.assoc "fc.recoveries" p.Timeseries.p_counters)
      s.Timeseries.s_points
  in
  Alcotest.(check (list int)) "counters are per-interval deltas" [ 5; 2 ] deltas;
  let gauges =
    List.map (fun p -> List.assoc "obs.queue" p.Timeseries.p_gauges)
      s.Timeseries.s_points
  in
  Alcotest.(check (list int)) "gauges are boundary values" [ 10; 4 ] gauges;
  (* the gating invariant: deltas re-sum to the registry total *)
  check_int "sum of deltas equals the registry total"
    (Option.get (Metrics.find m "fc.recoveries"))
    (List.assoc "fc.recoveries" (Timeseries.totals s))

let test_series_histogram_rows () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~subsystem:"hyp" "lat" in
  let ts = Timeseries.create ~period:100 m in
  Metrics.observe h 1;
  Timeseries.tick ts ~instructions:100;
  Metrics.observe h 8;
  Timeseries.tick ts ~instructions:200;
  Timeseries.tick ts ~instructions:300;
  let s = Timeseries.export ts in
  let rows =
    List.map (fun p -> List.assoc "hyp.lat" p.Timeseries.p_histograms)
      s.Timeseries.s_points
  in
  (match rows with
  | [ r1; r2; r3 ] ->
      check_int "interval 1: one observation" 1 r1.Timeseries.hr_count;
      check_int "interval 1: sum" 1 r1.Timeseries.hr_sum;
      check_int "interval 2: one observation" 1 r2.Timeseries.hr_count;
      check_int "interval 2: sum" 8 r2.Timeseries.hr_sum;
      check_int "interval 2: cumulative max at boundary" 8 r2.Timeseries.hr_max;
      check_int "quiet interval: empty row" 0 r3.Timeseries.hr_count;
      check_bool "quiet interval: percentile is nan" true
        (Float.is_nan (Timeseries.row_percentile r3 0.5));
      check_bool "bucket deltas are disjoint" true
        (r1.Timeseries.hr_buckets <> r2.Timeseries.hr_buckets)
  | rs -> Alcotest.failf "expected 3 rows, got %d" (List.length rs));
  (* bucket deltas re-sum per interval *)
  List.iter
    (fun r ->
      check_int "bucket deltas sum to the interval count" r.Timeseries.hr_count
        (List.fold_left (fun a (_, d) -> a + d) 0 r.Timeseries.hr_buckets))
    rows

let test_series_ring_drop () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~subsystem:"fc" "x" in
  let ts = Timeseries.create ~capacity:2 ~period:10 m in
  for i = 1 to 4 do
    Metrics.incr c;
    Timeseries.tick ts ~instructions:(i * 10)
  done;
  let s = Timeseries.export ts in
  check_int "all four ticks counted" 4 s.Timeseries.s_intervals;
  check_int "two points shed by the ring" 2 s.Timeseries.s_dropped;
  check_int "ring holds the newest two" 2 (List.length s.Timeseries.s_points);
  Alcotest.(check (list int)) "boundaries are the newest, in order" [ 3; 4 ]
    (List.map (fun p -> p.Timeseries.p_boundary) s.Timeseries.s_points)

let test_series_merge () =
  let mk bump =
    let m = Metrics.create () in
    let c = Metrics.counter m ~subsystem:"fc" "x" in
    let ts = Timeseries.create ~period:100 m in
    Metrics.add c bump;
    Timeseries.tick ~wall:(float_of_int bump) ts ~instructions:100;
    Metrics.add c 1;
    Timeseries.tick ~wall:(float_of_int (bump + 1)) ts ~instructions:200;
    Timeseries.export ts
  in
  let a = mk 3 and b = mk 10 in
  let m1 = Timeseries.merge [ a; b ] and m2 = Timeseries.merge [ b; a ] in
  check_string "merge is order-independent" (Timeseries.fingerprint m1)
    (Timeseries.fingerprint m2);
  (match m1.Timeseries.s_points with
  | [ p1; p2 ] ->
      check_int "deltas sum per boundary (1)" 13
        (List.assoc "fc.x" p1.Timeseries.p_counters);
      check_int "deltas sum per boundary (2)" 2
        (List.assoc "fc.x" p2.Timeseries.p_counters);
      check_int "instructions sum" 200 p1.Timeseries.p_instructions;
      Alcotest.(check (option (float 1e-9))) "wall takes the max" (Some 10.)
        p1.Timeseries.p_wall
  | ps -> Alcotest.failf "expected 2 merged points, got %d" (List.length ps));
  check_bool "mismatched periods refuse to merge" true
    (match
       Timeseries.merge
         [ a; { b with Timeseries.s_period = 50 } ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_series_fingerprint_excludes_engine () =
  let mk tlb_hits =
    let m = Metrics.create () in
    let e = Metrics.counter m ~subsystem:"tlb" "i_hits" in
    let c = Metrics.counter m ~subsystem:"fc" "x" in
    let ts = Timeseries.create ~period:100 m in
    Metrics.add e tlb_hits;
    Metrics.add c 2;
    Timeseries.tick ts ~instructions:100;
    Timeseries.export ts
  in
  check_string "engine counters are outside the fingerprint"
    (Timeseries.fingerprint (mk 5))
    (Timeseries.fingerprint (mk 500));
  check_bool "wall clocks are outside the fingerprint too" true
    (let m = Metrics.create () in
     let ts = Timeseries.create ~period:100 m in
     Timeseries.tick ~wall:1.0 ts ~instructions:100;
     let a = Timeseries.export ts in
     let m' = Metrics.create () in
     let ts' = Timeseries.create ~period:100 m' in
     Timeseries.tick ~wall:2.0 ts' ~instructions:100;
     Timeseries.fingerprint a = Timeseries.fingerprint (Timeseries.export ts'));
  check_bool "observable counters are inside it" true
    (let m = Metrics.create () in
     let c = Metrics.counter m ~subsystem:"fc" "x" in
     let ts = Timeseries.create ~period:100 m in
     Metrics.add c 3;
     Timeseries.tick ts ~instructions:100;
     Timeseries.fingerprint (Timeseries.export ts)
     <> Timeseries.fingerprint (mk 5))

(* ---------------- sampler folds ---------------- *)

let test_sampler_folds () =
  let s = Sampler.create () in
  Sampler.record s ~comm:"top" ~frames:[ "a"; "b" ];
  Sampler.record s ~comm:"top" ~frames:[ "a"; "b" ];
  Sampler.record s ~comm:"top" ~frames:[ "a" ];
  Sampler.record s ~comm:"bash" ~frames:[];
  check_int "samples counted" 4 (Sampler.samples s);
  let folds = Sampler.export s in
  check_int "equal stacks collapse" 3 (List.length folds);
  check_int "total equals samples" 4 (Sampler.total folds);
  check_string "flamegraph.pl folded lines" "bash 1\ntop;a 1\ntop;a;b 2\n"
    (Sampler.folded_text folds)

let test_sampler_cleans_frames () =
  let s = Sampler.create () in
  Sampler.record s ~comm:"my app" ~frames:[ "f;g"; "h i" ];
  match Sampler.export s with
  | [ f ] ->
      check_bool "no raw separators survive inside a frame" false
        (String.contains
           (String.concat ""
              (String.split_on_char ';' f.Sampler.f_stack))
           ' ')
  | fs -> Alcotest.failf "expected 1 fold, got %d" (List.length fs)

let test_sampler_merge () =
  let mk counts =
    let s = Sampler.create () in
    List.iter
      (fun (comm, n) ->
        for _ = 1 to n do
          Sampler.record s ~comm ~frames:[ "k" ]
        done)
      counts;
    Sampler.export s
  in
  let a = mk [ ("top", 2); ("bash", 1) ] and b = mk [ ("top", 3) ] in
  let merged = Sampler.merge [ a; b ] in
  check_int "counts sum per stack" 5
    (List.find (fun f -> f.Sampler.f_stack = "top;k") merged).Sampler.f_count;
  check_int "merged total" 6 (Sampler.total merged);
  check_string "merge is order-independent" (Sampler.fingerprint merged)
    (Sampler.fingerprint (Sampler.merge [ b; a ]))

(* ---------------- obs.trace_dropped gauge ---------------- *)

let test_trace_dropped_gauge () =
  let obs = Obs.create () in
  let m = Obs.metrics obs in
  check_int "gauge registered at creation, zero before arming" 0
    (Option.get (Metrics.find m "obs.trace_dropped"));
  Trace.arm ~capacity:2 (Obs.trace obs);
  for i = 1 to 5 do
    Obs.emit obs (Event.Sample { vid = 0; pid = i; comm = "x"; pc = 0; view = 0 })
  done;
  check_int "gauge tracks ring drops" 3
    (Option.get (Metrics.find m "obs.trace_dropped"))

(* ---------------- Event.Sample on the timeline ---------------- *)

let test_sample_on_timeline () =
  let obs = Obs.create () in
  Trace.arm (Obs.trace obs);
  Obs.emit obs
    (Event.Sample { vid = 0; pid = 7; comm = "top"; pc = 0xc0100005; view = 1 });
  let j = Export.timeline_to_json (Obs.trace obs) in
  let events =
    match J.member "traceEvents" j with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let sample =
    List.find_opt
      (fun e ->
        J.member "name" e |> Option.map (fun n -> J.to_str n) = Some (Some "sample"))
      events
  in
  match sample with
  | None -> Alcotest.fail "Sample event missing from the timeline"
  | Some e ->
      check_string "rendered as a thread-scoped instant" "i"
        (Option.get (J.to_str (Option.get (J.member "ph" e))))

(* ---------------- deterministic instruction-count ticker ----------- *)

(* The ticker must fire exactly floor(instructions / period) times over
   a run, deterministically, and cost nothing once disarmed. *)
let test_ticker_determinism () =
  let run_once () =
    let app = App.find_exn "top" in
    let os = Os.create ~config:(App.os_config app) (Lazy.force image) in
    let marks = ref [] in
    Os.arm_tick os ~period:5_000 (fun () ->
        marks := Os.instructions os :: !marks);
    let (_ : Process.t) = Os.spawn os ~name:"top" (app.App.script 2) in
    Os.run ~max_rounds:20_000 os;
    Os.disarm_tick os;
    (Os.instructions os, List.rev !marks)
  in
  let instructions, marks = run_once () in
  let instructions', marks' = run_once () in
  check_int "runs are deterministic" instructions instructions';
  Alcotest.(check (list int)) "tick marks are identical run to run" marks
    marks';
  check_int "ticks fired = floor(instructions / period)"
    (instructions / 5_000) (List.length marks);
  (* every tick fires at-or-after its nominal boundary (ticks land on
     slice ends, so a long slice catches up with a burst of ticks at the
     same mark — late, never early, and never out of order) *)
  List.iteri
    (fun i at ->
      check_bool "tick not early" true (at >= (i + 1) * 5_000))
    marks;
  check_bool "marks are non-decreasing" true
    (let rec mono = function
       | a :: (b :: _ as rest) -> a <= b && mono rest
       | _ -> true
     in
     mono marks)

(* ---------------- the probe, end to end on one guest --------------- *)

let test_probe_roundtrip () =
  let app = App.find_exn "top" in
  let os = Os.create ~config:(App.os_config app) (Lazy.force image) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable hyp in
  let (_ : Process.t) = Os.spawn os ~name:"top" (app.App.script 2) in
  let probe = Probe.arm ~period:5_000 ~os ~hyp ~fc () in
  Os.run ~max_rounds:20_000 os;
  let r = Probe.finish probe in
  Alcotest.(check (list string)) "deltas re-sum to the registry totals" []
    r.Probe.r_resum_errors;
  check_int "one sample per vCPU per tick" (r.Probe.r_ticks * r.Probe.r_vcpus)
    r.Probe.r_samples;
  check_int "ticks = floor(instructions/period) + final flush"
    ((Os.instructions os / 5_000) + 1)
    r.Probe.r_ticks;
  check_int "one series interval per tick" r.Probe.r_ticks
    r.Probe.r_series.Timeseries.s_intervals;
  check_int "profiler total equals samples" r.Probe.r_samples
    (Sampler.total r.Probe.r_folds);
  check_int "nothing dropped" 0 r.Probe.r_series.Timeseries.s_dropped

let suites =
  [
    ( "telemetry",
      [
        Alcotest.test_case "prometheus: name sanitization" `Quick
          test_prom_name;
        Alcotest.test_case "prometheus: label escaping" `Quick
          test_prom_escape_label;
        Alcotest.test_case "prometheus: text exposition" `Quick
          test_prom_exposition;
        Alcotest.test_case "series: counter deltas and gauge boundaries"
          `Quick test_series_deltas;
        Alcotest.test_case "series: histogram bucket-delta rows" `Quick
          test_series_histogram_rows;
        Alcotest.test_case "series: bounded ring sheds oldest" `Quick
          test_series_ring_drop;
        Alcotest.test_case "series: fleet merge" `Quick test_series_merge;
        Alcotest.test_case "series: fingerprint excludes engine counters"
          `Quick test_series_fingerprint_excludes_engine;
        Alcotest.test_case "sampler: folds collapse and export" `Quick
          test_sampler_folds;
        Alcotest.test_case "sampler: frames are cleaned" `Quick
          test_sampler_cleans_frames;
        Alcotest.test_case "sampler: fleet merge" `Quick test_sampler_merge;
        Alcotest.test_case "obs.trace_dropped gauge" `Quick
          test_trace_dropped_gauge;
        Alcotest.test_case "timeline: Sample instants" `Quick
          test_sample_on_timeline;
        Alcotest.test_case "ticker: deterministic instruction marks" `Slow
          test_ticker_determinism;
        Alcotest.test_case "probe: one-guest roundtrip" `Slow
          test_probe_roundtrip;
      ] );
  ]
