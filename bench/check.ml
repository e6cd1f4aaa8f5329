(* CI drift gate over the bench artifacts.

     bench/check.exe [BENCH_results.json [BENCH_timeline.json]]
     bench/check.exe --chaos [BENCH_chaos.json]
     bench/check.exe --perf [BENCH_perf.json]
     bench/check.exe --fleet [BENCH_fleet.json]
     bench/check.exe --telemetry [BENCH_telemetry.json]
     bench/check.exe --migrate [BENCH_migrate.json]
     bench/check.exe --snapshot [bench/golden.fcsnap]

   Modes combine in one invocation — e.g.
     bench/check.exe a.json b.json --chaos c.json --fleet d.json
   — and every artifact is validated even when an earlier one fails
   (including when it is missing or malformed): failures accumulate
   across all given artifacts, each prefixed with its path, and the
   process exits non-zero exactly once at the end.

   Fails (exit 1) when an artifact is malformed, a required metric key
   is missing, or a pinned deterministic counter (switch / recovery
   counts from the smoke run and the figure experiments) drifts from the
   seed values recorded below.  The simulation is deterministic, so any
   drift is a behavior change that must be re-pinned deliberately.

   The --chaos mode gates the fault-injection matrix: the governed arm
   must report zero panics, zero wedged runs, zero validation misses and
   exact per-app attribution at any plan count; the ungoverned control
   arm must actually panic; and at the full 100 plans every aggregate
   counter is pinned.

   The --fleet mode gates the sharded fleet: the pinned 40-guest cell's
   counters are exact, its merged fingerprint is byte-identical at 1, 2
   and 4 domains (sharding must be behavior-invisible), and every sweep
   row at the same guest count agrees with its siblings; wall-clock
   seconds/ips are checked finite, never compared.

   The --telemetry mode gates the continuous-telemetry layer: the armed
   pinned fleet cell's counters sit exactly on the --fleet pins and its
   fingerprint equals the disarmed control's (the probe is
   behavior-invisible); the merged series and profiler fingerprints are
   identical across domain counts; the reference and fast engine arms
   fingerprint identically; interval/sample counts are pinned; and the
   per-interval deltas re-sum to the final totals.

   The timeline artifact (Chrome trace-event JSON from the smoke run) is
   checked structurally: it parses, has events, every span E matches the
   innermost open B on its (pid, tid) track, and the per-app counters
   embedded in its stats section sum to the matching globals. *)

module J = Fc_obs.Jsonx

let failures = ref []
let context = ref ""

let fail fmt =
  Printf.ksprintf
    (fun s ->
      let s = if !context = "" then s else !context ^ ": " ^ s in
      failures := s :: !failures)
    fmt

let spell path = String.concat "." path

(* Every key the downstream tooling relies on, whether pinned or not. *)
let required_keys =
  [ "schema_version"; "fast"; "experiments" ]
  |> List.map (fun k -> [ k ])

let stats_fields =
  [
    "guest_cycles"; "rounds"; "context_switches"; "vcpus"; "breakpoint_exits";
    "invalid_opcode_exits"; "hypervisor_cycles"; "view_switches";
    "switches_skipped"; "switches_deferred"; "recoveries"; "recovered_bytes";
    "views_loaded"; "view_pages"; "shared_frames"; "cow_breaks"; "storms";
    "degradations"; "renarrows"; "quarantines"; "broken_backtraces";
  ]

let required_keys =
  required_keys
  @ List.map (fun f -> [ "results"; "smoke"; f ]) stats_fields
  @ [
      [ "results"; "table1"; "min_similarity"; "similarity" ];
      [ "results"; "table1"; "max_similarity"; "similarity" ];
      [ "results"; "table2"; "attacks" ];
      [ "results"; "table2"; "per_app_detected" ];
      [ "results"; "table2"; "union_detected" ];
      [ "results"; "fig3"; "completed" ];
      [ "results"; "fig3"; "panic" ];
      [ "results"; "fig3"; "lazy_recovered" ];
      [ "results"; "fig3"; "instant_recovered" ];
      [ "results"; "chaos"; "governed"; "panics" ];
      [ "results"; "chaos"; "governed"; "wedged" ];
      [ "results"; "chaos"; "governed"; "attribution_ok" ];
      [ "results"; "chaos"; "ungoverned"; "panics" ];
      [ "results"; "fig6"; "perf" ];
      [ "results"; "fig6"; "sharing"; "parity" ];
      [ "results"; "fig6"; "sharing"; "frames_saved" ];
      [ "results"; "fig6"; "sharing"; "reduction" ];
      [ "results"; "fig6"; "sharing"; "shared"; "recoveries" ];
      [ "results"; "fig6"; "sharing"; "shared"; "recovered_bytes" ];
      [ "results"; "fig6"; "sharing"; "unshared"; "recoveries" ];
      [ "results"; "fig7"; "base_capacity" ];
      [ "results"; "fig7"; "fc_capacity" ];
      [ "results"; "fig7"; "view_pages" ];
      [ "results"; "fig7"; "view_frames" ];
    ]

(* Pinned seed values: deterministic counters from the growth seed.
   Re-pin (with a note in the commit) only when a behavior change is
   intended. *)
let pinned_ints =
  [
    ([ "schema_version" ], 1);
    ([ "results"; "smoke"; "view_switches" ], 1);
    ([ "results"; "smoke"; "switches_skipped" ], 5);
    ([ "results"; "smoke"; "switches_deferred" ], 1);
    ([ "results"; "smoke"; "recoveries" ], 0);
    ([ "results"; "smoke"; "recovered_bytes" ], 0);
    ([ "results"; "smoke"; "breakpoint_exits" ], 7);
    ([ "results"; "smoke"; "invalid_opcode_exits" ], 0);
    (* the smoke run has no governor and no injected faults: every
       robustness counter must stay zero *)
    ([ "results"; "smoke"; "storms" ], 0);
    ([ "results"; "smoke"; "degradations" ], 0);
    ([ "results"; "smoke"; "renarrows" ], 0);
    ([ "results"; "smoke"; "quarantines" ], 0);
    ([ "results"; "smoke"; "broken_backtraces" ], 0);
    ([ "results"; "table2"; "attacks" ], 16);
    ([ "results"; "table2"; "per_app_detected" ], 16);
    ([ "results"; "table2"; "union_detected" ], 3);
    ([ "results"; "fig6"; "sharing"; "shared"; "recoveries" ], 71);
    ([ "results"; "fig6"; "sharing"; "shared"; "recovered_bytes" ], 9568);
    ([ "results"; "fig6"; "sharing"; "unshared"; "recoveries" ], 71);
    ([ "results"; "fig6"; "sharing"; "unshared"; "cow_breaks" ], 0);
  ]

let pinned_bools =
  [
    ([ "results"; "fig3"; "completed" ], true);
    ([ "results"; "fig6"; "sharing"; "parity" ], true);
  ]

let check_required j =
  List.iter
    (fun p ->
      match J.path j p with
      | Some _ -> ()
      | None -> fail "missing required key %s" (spell p))
    required_keys

let check_pinned j =
  List.iter
    (fun (p, expected) ->
      match Option.bind (J.path j p) J.to_int with
      | None -> fail "pinned key %s is missing or not an int" (spell p)
      | Some v when v <> expected ->
          fail "%s drifted: expected %d, got %d" (spell p) expected v
      | Some _ -> ())
    pinned_ints;
  List.iter
    (fun (p, expected) ->
      match Option.bind (J.path j p) J.to_bool with
      | None -> fail "pinned key %s is missing or not a bool" (spell p)
      | Some v when v <> expected ->
          fail "%s drifted: expected %b, got %b" (spell p) expected v
      | Some _ -> ())
    pinned_bools

(* Structural sanity that needs no pinning: finite numbers only (the
   exporter writes non-finite floats as null, which to_float rejects). *)
let check_finite j =
  List.iter
    (fun p ->
      match J.path j p with
      | None -> () (* already reported as missing *)
      | Some v -> (
          match J.to_float v with
          | Some f when Float.is_finite f -> ()
          | Some _ | None -> fail "%s is not a finite number" (spell p)))
    [
      [ "results"; "table1"; "min_similarity"; "similarity" ];
      [ "results"; "table1"; "max_similarity"; "similarity" ];
      [ "results"; "fig6"; "sharing"; "reduction" ];
      [ "results"; "fig7"; "base_capacity" ];
      [ "results"; "fig7"; "fc_capacity" ];
    ]

(* ---------------- timeline artifact ---------------- *)

let check_timeline j =
  let events =
    match J.path j [ "traceEvents" ] with
    | Some (J.List evs) -> evs
    | Some _ | None ->
        fail "timeline: traceEvents missing or not a list";
        []
  in
  if events = [] then fail "timeline: traceEvents is empty";
  (* balanced, well-nested spans: per (pid, tid) track, every E must
     close the innermost open B of the same name *)
  let stacks : (int * int, string list) Hashtbl.t = Hashtbl.create 8 in
  let field e k = Option.bind (J.path e [ k ]) J.to_int in
  let name e =
    match J.path e [ "name" ] with Some (J.String s) -> s | _ -> ""
  in
  List.iter
    (fun e ->
      let ph = match J.path e [ "ph" ] with Some (J.String s) -> s | _ -> "" in
      match (ph, field e "pid", field e "tid") with
      | "B", Some pid, Some tid ->
          let k = (pid, tid) in
          let st = Option.value ~default:[] (Hashtbl.find_opt stacks k) in
          Hashtbl.replace stacks k (name e :: st)
      | "E", Some pid, Some tid -> (
          let k = (pid, tid) in
          match Hashtbl.find_opt stacks k with
          | Some (top :: rest) when String.equal top (name e) ->
              Hashtbl.replace stacks k rest
          | Some (top :: _) ->
              fail "timeline: E %s crosses open span %s on (%d,%d)" (name e)
                top pid tid
          | Some [] | None ->
              fail "timeline: E %s without an open B on (%d,%d)" (name e) pid
                tid)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun (pid, tid) st ->
      if st <> [] then
        fail "timeline: %d span(s) left open on (%d,%d): %s" (List.length st)
          pid tid (String.concat "," st))
    stacks;
  (* per-app attribution must sum to the globals captured in the same
     stats snapshot *)
  let stats = J.path j [ "stats" ] in
  match stats with
  | None -> fail "timeline: stats section missing"
  | Some stats -> (
      match J.path stats [ "per_app" ] with
      | Some (J.Obj apps) ->
          let sum field =
            List.fold_left
              (fun acc (_, a) ->
                acc + Option.value ~default:0 (Option.bind (J.path a [ field ]) J.to_int))
              0 apps
          in
          List.iter
            (fun (app_field, global_field) ->
              let expected =
                Option.value ~default:0
                  (Option.bind (J.path stats [ global_field ]) J.to_int)
              in
              let got = sum app_field in
              if got <> expected then
                fail "timeline: per-app %s sums to %d, global %s is %d"
                  app_field got global_field expected)
            [
              ("cycles_charged", "hypervisor_cycles");
              ("view_switches", "view_switches");
              ("recoveries", "recoveries");
              ("recovered_bytes", "recovered_bytes");
              ("cow_breaks", "cow_breaks");
            ]
      | Some _ | None -> fail "timeline: stats.per_app missing")

(* ---------------- chaos artifact ---------------- *)

(* Exact counter pins for the full 100-plan matrix (seed 1) that the CI
   chaos-smoke job runs; everything downstream of the seed is
   deterministic.  Re-pin only with an intended behavior change. *)
let chaos_pins_100 =
  [
    ([ "governed"; "faults_injected" ], 535);
    ([ "governed"; "recoveries" ], 242);
    ([ "governed"; "storms" ], 23);
    ([ "governed"; "degradations" ], 159);
    ([ "governed"; "renarrows" ], 7);
    ([ "governed"; "quarantines" ], 36);
    ([ "governed"; "broken_backtraces" ], 34);
    ([ "ungoverned"; "panics" ], 54);
  ]

let check_chaos j =
  let geti p = Option.bind (J.path j p) J.to_int in
  let getb p = Option.bind (J.path j p) J.to_bool in
  List.iter
    (fun p ->
      if J.path j p = None then fail "missing required key %s" (spell p))
    ([ [ "schema_version" ]; [ "seed" ]; [ "plans" ] ]
    @ List.concat_map
        (fun arm ->
          List.map
            (fun k -> [ arm; k ])
            [
              "plans"; "faults_injected"; "bp_misses"; "config_rejects";
              "validation_misses"; "recoveries"; "storms"; "degradations";
              "renarrows"; "quarantines"; "broken_backtraces"; "panics";
              "wedged"; "attribution_ok";
            ])
        [ "governed"; "ungoverned" ]);
  (* the acceptance property: with the governor on, nothing dies, nothing
     wedges, nothing slips past validation, attribution stays exact *)
  List.iter
    (fun (p, expected) ->
      match geti p with
      | Some v when v = expected -> ()
      | Some v -> fail "%s: expected %d, got %d" (spell p) expected v
      | None -> fail "%s is missing or not an int" (spell p))
    [
      ([ "governed"; "panics" ], 0);
      ([ "governed"; "wedged" ], 0);
      ([ "governed"; "validation_misses" ], 0);
      ([ "ungoverned"; "validation_misses" ], 0);
    ];
  List.iter
    (fun p ->
      match getb p with
      | Some true -> ()
      | Some false -> fail "%s: per-app attribution drifted" (spell p)
      | None -> fail "%s is missing or not a bool" (spell p))
    [ [ "governed"; "attribution_ok" ]; [ "ungoverned"; "attribution_ok" ] ];
  (* the control arm must actually demonstrate the fragility the governor
     removes — a chaos matrix nothing dies under proves nothing *)
  (match geti [ "ungoverned"; "panics" ] with
  | Some n when n > 0 -> ()
  | Some 0 -> fail "ungoverned arm produced no panics: the plans are toothless"
  | Some _ | None -> ());
  if geti [ "plans" ] = Some 100 then
    List.iter
      (fun (p, expected) ->
        match geti p with
        | Some v when v = expected -> ()
        | Some v -> fail "%s drifted: expected %d, got %d" (spell p) expected v
        | None -> fail "%s is missing or not an int" (spell p))
      chaos_pins_100

(* ---------------- perf artifact ---------------- *)

(* The perf gate never touches wall-clock numbers (seconds, ips,
   speedups — recorded for humans, hopeless to pin).  Each workload runs
   on the reference engine and the fast one; what the gate checks:

   - parity: every fast arm retired the identical instruction and cycle
     counts as its reference arm — the engine is an optimization, not a
     semantic change;
   - the reference arms really ran without TLBs and superblocks (zero
     hit/miss and block counters);
   - the fast arms' caches work (hits dominate misses and rebuilds,
     blocks chain), and every deterministic counter sits on an exact pin
     — including i_flushes = 0 (view switches retag, COW breaks touch a
     frame version, RAM growth installs quietly) and sb_restamps = 0
     (global-page stamps plus pre-stamped tag memos), captured from one
     deterministic pass so they are independent of reps / --fast.
     d_hits/d_misses count guest data accesses only: host-side copies
     (boot, view building, recovery) translate each page once and bypass
     the dTLB, which is what took fast+views from 9133042/2112 to
     821938/834, fast+noviews from 5670833/1343 to 557969/65 and httperf
     fast from 1460460/219 to 657804/77.

   The arm set is closed: a missing or unknown arm label fails the gate. *)
let perf_arms =
  [ ("unixbench", [ ("reference+views", "fast+views");
                    ("reference+noviews", "fast+noviews") ]);
    ("httperf", [ ("reference", "fast") ]) ]

let perf_fast_pins =
  [
    ( "unixbench",
      "fast+views",
      [ ("instructions", 20348460); ("cycles", 29738269);
        ("i_hits", 92010); ("i_misses", 257); ("d_hits", 821938);
        ("d_misses", 834); ("i_flushes", 0); ("d_flushes", 64);
        ("sb_built", 7378); ("sb_hits", 160450); ("sb_invals", 3049);
        ("sb_chains", 351511); ("sb_restamps", 0); ("fl_growth", 64);
        ("fl_explicit", 0) ] );
    ( "unixbench",
      "fast+noviews",
      [ ("instructions", 20003751); ("cycles", 26496304);
        ("i_hits", 90353); ("i_misses", 103); ("d_hits", 557969);
        ("d_misses", 65); ("i_flushes", 0); ("d_flushes", 46);
        ("sb_built", 4683); ("sb_hits", 157966); ("sb_invals", 0);
        ("sb_chains", 347480); ("sb_restamps", 0); ("fl_growth", 46);
        ("fl_explicit", 0) ] );
    ( "httperf",
      "fast",
      [ ("instructions", 25702368); ("cycles", 45117642);
        ("i_hits", 128760); ("i_misses", 4186); ("d_hits", 657804);
        ("d_misses", 77); ("i_flushes", 0); ("d_flushes", 5);
        ("sb_built", 2282); ("sb_hits", 181925); ("sb_invals", 42164);
        ("sb_chains", 440748); ("sb_restamps", 0); ("fl_growth", 5);
        ("fl_explicit", 0) ] );
  ]

let check_perf j =
  let geti v p = Option.bind (J.path v p) J.to_int in
  (match geti j [ "schema_version" ] with
  | Some 2 -> ()
  | Some v -> fail "perf: schema_version %d, expected 2" v
  | None -> fail "perf: schema_version missing");
  let label a =
    match J.path a [ "label" ] with Some (J.String s) -> s | _ -> "?"
  in
  let arms section =
    match J.path j [ "perf"; section; "arms" ] with
    | Some (J.List l) -> l
    | Some _ | None ->
        fail "perf: %s.arms missing or not a list" section;
        []
  in
  let find_arm section l = List.find_opt (fun a -> label a = l) (arms section) in
  let counter section l name =
    Option.bind (find_arm section l) (fun a -> geti a [ "counters"; name ])
  in
  let v section l c = Option.value ~default:0 (counter section l c) in
  List.iter
    (fun (section, pairs) ->
      let expected = List.concat_map (fun (r, f) -> [ r; f ]) pairs in
      List.iter
        (fun a ->
          if not (List.mem (label a) expected) then
            fail "perf: %s has unknown arm %s" section (label a))
        (arms section);
      List.iter
        (fun l ->
          match find_arm section l with
          | None -> fail "perf: %s arm %s missing" section l
          | Some a ->
              (* wall clock: present and finite, never compared *)
              List.iter
                (fun k ->
                  match Option.bind (J.path a [ k ]) J.to_float with
                  | Some f when Float.is_finite f -> ()
                  | Some _ | None ->
                      fail "perf: %s/%s.%s is not a finite number" section l k)
                [ "seconds"; "ips" ])
        expected;
      List.iter
        (fun (reference, fast) ->
          (* parity: same workload, same retirement, either engine *)
          List.iter
            (fun c ->
              match (counter section fast c, counter section reference c) with
              | Some a, Some b when a = b -> ()
              | Some a, Some b ->
                  fail "perf: %s %s between %s (%d) and %s (%d) — the fast \
                        engine changed guest behavior"
                    section c fast a reference b
              | _ -> fail "perf: %s %s missing on %s or %s" section c fast
                       reference)
            [ "instructions"; "cycles" ];
          (* the reference arm must be a true baseline *)
          List.iter
            (fun c ->
              match counter section reference c with
              | Some 0 -> ()
              | Some n ->
                  fail "perf: %s/%s.%s = %d, expected 0 (reference engine)"
                    section reference c n
              | None -> fail "perf: %s/%s.%s missing" section reference c)
            [ "i_hits"; "i_misses"; "d_hits"; "d_misses"; "sb_built";
              "sb_hits"; "sb_invals"; "sb_chains"; "sb_restamps" ];
          (* the fast arm's caches must work: blocks decoded once,
             re-executed many times, chained block-to-block; TLB hits
             dominate misses *)
          let v = v section fast in
          if v "sb_built" = 0 then fail "perf: %s/%s built no blocks" section fast;
          if v "sb_chains" = 0 then
            fail "perf: %s/%s followed no chains" section fast;
          List.iter
            (fun (hit, miss) ->
              if v hit <= v miss then
                fail "perf: %s/%s %s (%d) do not dominate %s (%d)" section
                  fast hit (v hit) miss (v miss))
            [ ("sb_hits", "sb_built"); ("i_hits", "i_misses");
              ("d_hits", "d_misses") ])
        pairs)
    perf_arms;
  (* exact pins on the fast arms *)
  List.iter
    (fun (section, l, pins) ->
      List.iter
        (fun (c, expected) ->
          match counter section l c with
          | Some n when n = expected -> ()
          | Some n ->
              fail "perf: %s/%s.%s drifted: expected %d, got %d" section l c
                expected n
          | None -> fail "perf: %s/%s.%s missing" section l c)
        pins)
    perf_fast_pins;
  (* warm/cold: instruction counts pinned, times recorded only *)
  List.iter
    (fun (leg, expected) ->
      match geti j [ "perf"; "warm_cold"; leg; "instructions" ] with
      | Some n when n = expected -> ()
      | Some n ->
          fail "perf: warm_cold.%s.instructions drifted: expected %d, got %d"
            leg expected n
      | None -> fail "perf: warm_cold.%s.instructions missing" leg)
    [ ("cold", 152121); ("warm", 155917) ]

(* ---------------- fleet artifact ---------------- *)

(* Exact counter pins for the pinned fleet cell: 40 guests, seed 7, run
   at 1, 2 and 4 domains regardless of --fast.  Everything downstream of
   the seed is deterministic and independent of the domain count, so one
   set of pins covers all three cells.  Re-pin only with an intended
   behavior change. *)
let fleet_cell_pins =
  [
    ("instructions", 40617176);
    ("cycles", 53150303);
    ("context_switches", 1299);
    ("view_switches", 1274);
    ("recoveries", 139);
    ("recovered_bytes", 61568);
    ("degradations", 70);
    ("quarantines", 19);
    ("total_frames", 2081);
    ("unique_frames", 180);
    ("panics", 0);
    ("wedged", 0);
  ]

let check_fleet j =
  let geti v p = Option.bind (J.path v p) J.to_int in
  let getf v p = Option.bind (J.path v p) J.to_float in
  (match geti j [ "schema_version" ] with
  | Some 1 -> ()
  | Some v -> fail "fleet: schema_version %d, expected 1" v
  | None -> fail "fleet: schema_version missing");
  (match geti j [ "fleet"; "seed" ] with
  | Some 7 -> ()
  | Some v -> fail "fleet: seed %d, expected 7" v
  | None -> fail "fleet: seed missing");
  (match geti j [ "fleet"; "pinned"; "guests" ] with
  | Some 40 -> ()
  | Some v -> fail "fleet: pinned.guests %d, expected 40" v
  | None -> fail "fleet: pinned.guests missing");
  (* structural + wall-clock sanity shared by pinned and sweep cells *)
  let check_cell_shape ctx cell =
    List.iter
      (fun k ->
        match getf cell [ k ] with
        | Some f when Float.is_finite f -> ()
        | Some _ | None -> fail "fleet: %s.%s is not a finite number" ctx k)
      [ "seconds"; "ips"; "dedup_ratio" ];
    (match J.path cell [ "per_app_ok" ] with
    | Some (J.Bool true) -> ()
    | Some (J.Bool false) ->
        fail "fleet: %s: per-app sums drifted from merged globals" ctx
    | Some _ | None -> fail "fleet: %s.per_app_ok missing" ctx);
    (* the ratio is derived — make sure it derives from its own ints *)
    match (geti cell [ "unique_frames" ], geti cell [ "total_frames" ]) with
    | Some u, Some t when t > 0 ->
        let expect = 1. -. (float_of_int u /. float_of_int t) in
        (match getf cell [ "dedup_ratio" ] with
        | Some r when Float.abs (r -. expect) < 1e-9 -> ()
        | Some r ->
            fail "fleet: %s.dedup_ratio %g inconsistent with %d/%d frames" ctx
              r u t
        | None -> ())
    | Some _, Some _ | Some _, None | None, _ ->
        fail "fleet: %s frame counts missing or empty" ctx
  in
  let fingerprint cell =
    match J.path cell [ "fingerprint" ] with
    | Some (J.String s) when s <> "" -> Some s
    | _ -> None
  in
  (* pinned cells: exact counters, identical fingerprints across domain
     counts — the determinism acceptance bar *)
  (match J.path j [ "fleet"; "pinned"; "cells" ] with
  | Some (J.List cells) when List.length cells >= 2 ->
      let domains =
        List.filter_map (fun c -> geti c [ "domains" ]) cells
      in
      if not (List.mem 1 domains) then
        fail "fleet: pinned cells lack the 1-domain baseline";
      List.iteri
        (fun i cell ->
          let ctx =
            Printf.sprintf "pinned[%d] (d=%d)" i
              (Option.value ~default:(-1) (geti cell [ "domains" ]))
          in
          check_cell_shape ctx cell;
          List.iter
            (fun (k, expected) ->
              match geti cell [ k ] with
              | Some v when v = expected -> ()
              | Some v ->
                  fail "fleet: %s.%s drifted: expected %d, got %d" ctx k
                    expected v
              | None -> fail "fleet: %s.%s missing" ctx k)
            fleet_cell_pins)
        cells;
      (match List.map fingerprint cells with
      | fps when List.mem None fps ->
          fail "fleet: a pinned cell has no fingerprint"
      | fps -> (
          match List.sort_uniq compare fps with
          | [ _ ] -> ()
          | distinct ->
              fail
                "fleet: merged fingerprint differs across domain counts (%d \
                 distinct values) — sharding changed guest behavior"
                (List.length distinct)))
  | Some (J.List _) -> fail "fleet: fewer than 2 pinned cells"
  | Some _ | None -> fail "fleet: pinned.cells missing or not a list");
  (* sweep: rows at the same guest count must agree with each other,
     whatever their domain count; the grid itself depends on --fast and
     is not pinned *)
  match J.path j [ "fleet"; "sweep" ] with
  | Some (J.List rows) ->
      let by_guests : (int, (string option * int option) list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      List.iteri
        (fun i row ->
          let ctx =
            Printf.sprintf "sweep[%d] (d=%d g=%d)" i
              (Option.value ~default:(-1) (geti row [ "domains" ]))
              (Option.value ~default:(-1) (geti row [ "guests" ]))
          in
          check_cell_shape ctx row;
          match geti row [ "guests" ] with
          | None -> fail "fleet: %s.guests missing" ctx
          | Some g ->
              let l =
                match Hashtbl.find_opt by_guests g with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.add by_guests g l;
                    l
              in
              l := (fingerprint row, geti row [ "instructions" ]) :: !l)
        rows;
      Hashtbl.iter
        (fun guests l ->
          match List.sort_uniq compare !l with
          | [] | [ _ ] -> ()
          | distinct ->
              fail
                "fleet: sweep rows at %d guests disagree (%d distinct \
                 fingerprint/instruction pairs across domain counts)"
                guests (List.length distinct))
        by_guests
  | Some _ | None -> fail "fleet: sweep missing or not a list"

(* ---------------- telemetry artifact ---------------- *)

(* The armed pinned cell is the exact fleet the --fleet pins describe
   (seed 7, 40 guests), so its counters reuse fleet_cell_pins; the
   telemetry pins below are the interval/sample counts of that cell and
   of the fixed engine-matrix guest — deterministic by construction of
   the instruction-count ticker.  Re-pin only with an intended behavior
   change. *)
let telemetry_cell_pins = [ ("intervals", 17); ("samples", 428); ("stacks", 24) ]
let telemetry_matrix_pins = [ ("intervals", 14); ("samples", 14) ]

let telemetry_profile_pins =
  [ ("ticks", 26); ("samples", 26); ("intervals", 26); ("fold_total", 26) ]

(* series keys whose cell totals must equal the merged stats counter of
   the same name — the sum-equals-total invariant, checked end to end
   from the artifact *)
let telemetry_total_keys =
  [
    ("fc.view_switches", "view_switches");
    ("fc.recoveries", "recoveries");
    ("fc.recovered_bytes", "recovered_bytes");
    ("fc.degradations", "degradations");
    ("fc.quarantines", "quarantines");
  ]

let check_telemetry j =
  let geti v p = Option.bind (J.path v p) J.to_int in
  let gets v p =
    match J.path v p with Some (J.String s) when s <> "" -> Some s | _ -> None
  in
  let pin ctx cell (k, expected) =
    match geti cell [ k ] with
    | Some v when v = expected -> ()
    | Some v ->
        fail "telemetry: %s.%s drifted: expected %d, got %d" ctx k expected v
    | None -> fail "telemetry: %s.%s missing" ctx k
  in
  (match geti j [ "schema_version" ] with
  | Some 1 -> ()
  | Some v -> fail "telemetry: schema_version %d, expected 1" v
  | None -> fail "telemetry: schema_version missing");
  (match geti j [ "telemetry"; "seed" ] with
  | Some 7 -> ()
  | Some v -> fail "telemetry: seed %d, expected 7" v
  | None -> fail "telemetry: seed missing");
  let disarmed_fp = gets j [ "telemetry"; "disarmed_cell"; "fingerprint" ] in
  (match J.path j [ "telemetry"; "disarmed_cell" ] with
  | Some cell ->
      List.iter (pin "disarmed_cell" cell) fleet_cell_pins;
      if J.path cell [ "telemetry" ] <> None then
        fail "telemetry: the disarmed control cell carries telemetry"
  | None -> fail "telemetry: disarmed_cell missing");
  (* armed cells: fleet counters must sit exactly on the --fleet pins
     (arming is behavior-invisible), fleet fingerprint must equal the
     disarmed control's, and the merged telemetry must be identical
     across domain counts *)
  (match J.path j [ "telemetry"; "armed_cells" ] with
  | Some (J.List cells) when List.length cells >= 2 ->
      let series_fps = ref [] and sampler_fps = ref [] in
      List.iteri
        (fun i cell ->
          let ctx =
            Printf.sprintf "armed[%d] (d=%d)" i
              (Option.value ~default:(-1) (geti cell [ "domains" ]))
          in
          List.iter (pin ctx cell) fleet_cell_pins;
          (match (gets cell [ "fingerprint" ], disarmed_fp) with
          | Some a, Some d when a <> d ->
              fail
                "telemetry: %s fleet fingerprint differs from the disarmed \
                 control — arming the probe changed guest behavior"
                ctx
          | None, _ -> fail "telemetry: %s.fingerprint missing" ctx
          | _ -> ());
          match J.path cell [ "telemetry" ] with
          | None -> fail "telemetry: %s carries no telemetry" ctx
          | Some tel ->
              List.iter (pin (ctx ^ ".telemetry") tel) telemetry_cell_pins;
              pin (ctx ^ ".telemetry") tel ("dropped", 0);
              series_fps := gets tel [ "series_fingerprint" ] :: !series_fps;
              sampler_fps := gets tel [ "sampler_fingerprint" ] :: !sampler_fps;
              (* sum-equals-total, end to end: the series deltas re-sum
                 to the merged stats counters *)
              List.iter
                (fun (key, stat) ->
                  match (geti tel [ "totals"; key ], geti cell [ stat ]) with
                  | Some t, Some s when t <> s ->
                      fail
                        "telemetry: %s: series %s re-sums to %d but the \
                         merged stats report %d"
                        ctx key t s
                  | None, _ -> fail "telemetry: %s.totals.%s missing" ctx key
                  | _, None -> fail "telemetry: %s.%s missing" ctx stat
                  | Some _, Some _ -> ())
                telemetry_total_keys)
        cells;
      List.iter
        (fun (what, fps) ->
          match List.sort_uniq compare fps with
          | [ Some _ ] -> ()
          | [ None ] | [] -> fail "telemetry: armed cells lack %s" what
          | distinct ->
              fail
                "telemetry: %s differs across domain counts (%d distinct \
                 values) — the merge is shard-dependent"
                what (List.length distinct))
        [ ("series fingerprint", !series_fps);
          ("sampler fingerprint", !sampler_fps) ]
  | Some (J.List _) -> fail "telemetry: fewer than 2 armed cells"
  | Some _ | None -> fail "telemetry: armed_cells missing or not a list");
  (* engine matrix: the reference and fast arms fingerprint identically *)
  (match J.path j [ "telemetry"; "matrix" ] with
  | Some (J.List arms) when List.length arms = 2 ->
      let fps = ref [] in
      List.iter
        (fun arm ->
          let ctx =
            Printf.sprintf "matrix[%s]"
              (Option.value ~default:"?" (gets arm [ "arm" ]))
          in
          (match gets arm [ "outcome" ] with
          | Some "ok" -> ()
          | Some o -> fail "telemetry: %s outcome %s" ctx o
          | None -> fail "telemetry: %s.outcome missing" ctx);
          List.iter (pin ctx arm) telemetry_matrix_pins;
          (match J.path arm [ "resum_errors" ] with
          | Some (J.List []) -> ()
          | Some (J.List es) ->
              fail "telemetry: %s: %d counter(s) fail to re-sum" ctx
                (List.length es)
          | Some _ | None -> fail "telemetry: %s.resum_errors missing" ctx);
          fps :=
            ( gets arm [ "series_fingerprint" ],
              gets arm [ "sampler_fingerprint" ] )
            :: !fps)
        arms;
      (match List.sort_uniq compare !fps with
      | [ (Some _, Some _) ] -> ()
      | [ _ ] -> fail "telemetry: matrix arms lack fingerprints"
      | distinct ->
          fail
            "telemetry: fingerprints differ across engine arms (%d distinct \
             values) — the engine is telemetry-visible"
            (List.length distinct))
  | Some (J.List arms) ->
      fail "telemetry: expected 2 engine arms, found %d" (List.length arms)
  | Some _ | None -> fail "telemetry: matrix missing or not a list");
  (* profile: the armed unixbench-style run produced a non-empty folded
     profile whose sample count equals the ticks fired *)
  match J.path j [ "telemetry"; "profile" ] with
  | None -> fail "telemetry: profile missing"
  | Some p -> (
      (match gets p [ "outcome" ] with
      | Some "ok" -> ()
      | Some o -> fail "telemetry: profile outcome %s" o
      | None -> fail "telemetry: profile.outcome missing");
      List.iter (pin "profile" p) telemetry_profile_pins;
      pin "profile" p ("dropped", 0);
      (match (geti p [ "samples" ], geti p [ "ticks" ], geti p [ "vcpus" ]) with
      | Some s, Some t, Some v when s <> t * v ->
          fail "telemetry: profile recorded %d samples over %d ticks x %d vcpus"
            s t v
      | _ -> ());
      (match J.path p [ "resum_errors" ] with
      | Some (J.List []) -> ()
      | Some (J.List es) ->
          fail "telemetry: profile: %d counter(s) fail to re-sum"
            (List.length es)
      | Some _ | None -> fail "telemetry: profile.resum_errors missing");
      match geti p [ "stacks" ] with
      | Some s when s > 0 -> ()
      | Some _ -> fail "telemetry: profile folded-stack profile is empty"
      | None -> fail "telemetry: profile.stacks missing")

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s

(* ---------------- migrate artifact ---------------- *)

(* Exact pins for the migration rows the fast and full grids share: the
   row seed is Frand.mix of the arm seed and (precopy_rounds, index), so
   the first two seeds of the precopy-1 and precopy-3 columns are
   identical in both grids.  Keyed by (precopy_rounds, row seed); the
   pinned fields are everything deterministic about the transfer —
   downtime_cycles is a model output recorded for humans and is NEVER
   gated.  Re-pin only with an intended behavior change.  snapshot_bytes
   moves with the wire format: codec v3 stores one engine byte where v2
   stored three flags and a global generation (10 bytes fewer). *)
let migrate_row_pins =
  [
    ( (1, 3913828523329621081),
      [ ("pages_total", 455); ("pages_copied", 455); ("final_dirty", 0);
        ("bytes_copied", 1863680); ("snapshot_bytes", 813954) ] );
    ( (1, 99671189725526193),
      [ ("pages_total", 473); ("pages_copied", 473); ("final_dirty", 0);
        ("bytes_copied", 1937408); ("snapshot_bytes", 819594) ] );
    ( (3, 725993633631596918),
      [ ("pages_total", 477); ("pages_copied", 481); ("final_dirty", 0);
        ("bytes_copied", 1970176); ("snapshot_bytes", 853031) ] );
    ( (3, 1520132603867492020),
      [ ("pages_total", 473); ("pages_copied", 480); ("final_dirty", 0);
        ("bytes_copied", 1966080); ("snapshot_bytes", 820105) ] );
  ]

let check_migrate j =
  let geti v p = Option.bind (J.path v p) J.to_int in
  (match geti j [ "schema_version" ] with
  | Some 1 -> ()
  | Some v -> fail "migrate: schema_version %d, expected 1" v
  | None -> fail "migrate: schema_version missing");
  (* the acceptance property: every migrated guest finished with its
     uninterrupted control's digest, and nothing died *)
  (match J.path j [ "migrate"; "parity_ok" ] with
  | Some (J.Bool true) -> ()
  | Some (J.Bool false) ->
      fail "migrate: a migrated guest diverged from its control"
  | Some _ | None -> fail "migrate: parity_ok missing");
  (match geti j [ "migrate"; "panics" ] with
  | Some 0 -> ()
  | Some n -> fail "migrate: %d guest(s) panicked" n
  | None -> fail "migrate: panics missing");
  match J.path j [ "migrate"; "rows" ] with
  | Some (J.List []) -> fail "migrate: no rows — nothing migrated"
  | Some (J.List rows) ->
      List.iteri
        (fun i row ->
          let ctx =
            Printf.sprintf "row[%d] (precopy=%d)" i
              (Option.value ~default:(-1) (geti row [ "precopy_rounds" ]))
          in
          (match J.path row [ "migrated" ] with
          | Some (J.Bool true) -> ()
          | Some (J.Bool false) ->
              fail "migrate: %s: guest died before the handoff" ctx
          | Some _ | None -> fail "migrate: %s.migrated missing" ctx);
          (match J.path row [ "parity" ] with
          | Some (J.Bool true) -> ()
          | Some (J.Bool false) ->
              fail "migrate: %s: post-handoff digest diverged" ctx
          | Some _ | None -> fail "migrate: %s.parity missing" ctx);
          (* structural invariants of any transfer, fast or full *)
          (match (geti row [ "final_dirty" ], geti row [ "pages_total" ]) with
          | Some d, Some t when d > t ->
              fail "migrate: %s: final dirty set (%d) exceeds live pages (%d)"
                ctx d t
          | None, _ | _, None ->
              fail "migrate: %s page counts missing" ctx
          | Some _, Some _ -> ());
          (match (geti row [ "pages_copied" ], geti row [ "pages_total" ]) with
          | Some c, Some t when c < t ->
              fail "migrate: %s: copied %d pages but %d were live" ctx c t
          | _ -> ());
          (match geti row [ "snapshot_bytes" ] with
          | Some b when b > 0 -> ()
          | Some _ -> fail "migrate: %s: empty wire snapshot" ctx
          | None -> fail "migrate: %s.snapshot_bytes missing" ctx);
          (* downtime: present and positive — recorded, never compared *)
          (match geti row [ "downtime_cycles" ] with
          | Some d when d > 0 -> ()
          | Some _ -> fail "migrate: %s: downtime_cycles not positive" ctx
          | None -> fail "migrate: %s.downtime_cycles missing" ctx);
          (* exact pins where this row is one the grids share *)
          match (geti row [ "precopy_rounds" ], geti row [ "seed" ]) with
          | Some pr, Some seed -> (
              match List.assoc_opt (pr, seed) migrate_row_pins with
              | None -> ()
              | Some pins ->
                  List.iter
                    (fun (k, expected) ->
                      match geti row [ k ] with
                      | Some v when v = expected -> ()
                      | Some v ->
                          fail "migrate: %s.%s drifted: expected %d, got %d"
                            ctx k expected v
                      | None -> fail "migrate: %s.%s missing" ctx k)
                    pins)
          | _ -> fail "migrate: %s seed/precopy_rounds missing" ctx)
        rows
  | Some _ | None -> fail "migrate: rows missing or not a list"

(* ---------------- golden snapshot artifact ---------------- *)

(* Format-stability gate: the committed golden .fcsnap must decode with
   today's decoder, and re-encoding the decoded value must reproduce the
   committed bytes exactly.  Any codec change that breaks either is a
   wire-format break: bump the version and regenerate the golden
   deliberately (bin/facechange_cli.ml snapshot), never silently. *)
let check_snapshot path =
  match read_file path with
  | Error e -> fail "cannot open: %s" e
  | Ok wire -> (
      match Fc_snapshot.Snapshot.decode wire with
      | Error e ->
          fail "golden snapshot rejected (%d bytes on disk): %s"
            (String.length wire)
            (Fc_snapshot.Snapshot.error_to_string e)
      | Ok snap ->
          let reencoded = Fc_snapshot.Snapshot.encode snap in
          if not (String.equal reencoded wire) then
            fail
              "golden snapshot is not a fixed point: re-encoding yields %d \
               bytes vs %d committed — the wire format changed without a \
               version bump"
              (String.length reencoded) (String.length wire);
          (match Fc_snapshot.Snapshot.meta_find snap "kind" with
          | Some _ -> ()
          | None -> fail "golden snapshot carries no kind meta entry");
          if snap.Fc_snapshot.Snapshot.s_tables = [||] then
            fail "golden snapshot has no EPT tables")

(* ---------------- driver ---------------- *)

(* A missing or malformed artifact is a recorded failure, not an early
   exit: the remaining artifacts still get validated.  A parse failure
   names the artifact (via the context prefix), its size on disk and the
   byte offset the parser died at — enough to pull the artifact from CI
   and look at the exact spot. *)
let parse path =
  match read_file path with
  | Error e ->
      fail "cannot open: %s" e;
      None
  | Ok s -> (
      match J.of_string s with
      | Error e ->
          fail "not valid JSON (%d bytes on disk): %s" (String.length s) e;
          None
      | Ok j -> Some j)

type kind = Results | Timeline | Chaos | Perf | Fleet | Telemetry | Migrate | Snapshot

let default_file = function
  | Results -> "BENCH_results.json"
  | Timeline -> "BENCH_timeline.json"
  | Chaos -> "BENCH_chaos.json"
  | Perf -> "BENCH_perf.json"
  | Fleet -> "BENCH_fleet.json"
  | Telemetry -> "BENCH_telemetry.json"
  | Migrate -> "BENCH_migrate.json"
  | Snapshot -> "bench/golden.fcsnap"

(* Mode flags apply to the paths that follow them; bare paths keep the
   historical meaning (results, then its timeline).  Flags without a
   path check that mode's default artifact — including when several
   trailing flags stack (`--snapshot --migrate` checks both defaults). *)
let parse_args args =
  let jobs = ref [] and mode = ref Results and flagged = ref false in
  let flush_flag () =
    if !flagged then jobs := (!mode, default_file !mode) :: !jobs
  in
  let set m =
    flush_flag ();
    mode := m;
    flagged := true
  in
  List.iter
    (fun a ->
      match a with
      | "--chaos" -> set Chaos
      | "--perf" -> set Perf
      | "--fleet" -> set Fleet
      | "--telemetry" -> set Telemetry
      | "--results" -> set Results
      | "--timeline" -> set Timeline
      | "--migrate" -> set Migrate
      | "--snapshot" -> set Snapshot
      | path ->
          flagged := false;
          jobs := (!mode, path) :: !jobs;
          (* a bare path in results mode makes the next bare path the
             timeline, as `check.exe results.json timeline.json` always
             meant *)
          if !mode = Results then mode := Timeline)
    args;
  flush_flag ();
  let jobs = List.rev !jobs in
  match jobs with
  | [] -> [ (Results, default_file Results); (Timeline, default_file Timeline) ]
  | jobs ->
      (* a results check without its timeline pulls in the default, as
         the zero/one-argument historical forms did *)
      let has k = List.exists (fun (k', _) -> k' = k) jobs in
      if has Results && not (has Timeline) then
        jobs @ [ (Timeline, default_file Timeline) ]
      else jobs

let run_job (kind, path) =
  context := path;
  (match kind with
  | Snapshot -> check_snapshot path (* binary, not JSON *)
  | _ -> (
      match parse path with
      | None -> ()
      | Some j -> (
          match kind with
          | Results ->
              check_required j;
              check_pinned j;
              check_finite j
          | Timeline -> check_timeline j
          | Chaos -> check_chaos j
          | Perf -> check_perf j
          | Fleet -> check_fleet j
          | Telemetry -> check_telemetry j
          | Migrate -> check_migrate j
          | Snapshot -> assert false)));
  context := ""

let () =
  let jobs = parse_args (List.tl (Array.to_list Sys.argv)) in
  List.iter run_job jobs;
  match List.rev !failures with
  | [] ->
      Printf.printf "check: %s ok (%d pinned results values, %d chaos pins, \
                     %d perf pins, %d fleet pins, %d telemetry pins, %d \
                     migrate pins where applicable)\n"
        (String.concat " + " (List.map snd jobs))
        (List.length pinned_ints + List.length pinned_bools)
        (List.length chaos_pins_100)
        (List.fold_left (fun acc (_, _, pins) -> acc + List.length pins) 2
           perf_fast_pins)
        (List.length fleet_cell_pins)
        (List.length telemetry_cell_pins + List.length telemetry_matrix_pins
        + List.length telemetry_profile_pins)
        (List.fold_left (fun acc (_, pins) -> acc + List.length pins) 0
           migrate_row_pins);
      exit 0
  | fs ->
      List.iter (Printf.eprintf "check: %s\n") fs;
      Printf.eprintf "check: FAILED (%d problem(s) across %d artifact(s))\n"
        (List.length fs) (List.length jobs);
      exit 1
