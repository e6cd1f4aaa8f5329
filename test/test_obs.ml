(* The observability layer: ring buffer mechanics, the hand-rolled JSON
   codec, golden exporter output, and the invariant that ties it all
   together — event-derived counts equal the Stats.capture projection of
   the metrics registry on a full scheduler run. *)

module Ring = Fc_obs.Ring
module Trace = Fc_obs.Trace
module Event = Fc_obs.Event
module Metrics = Fc_obs.Metrics
module Span = Fc_obs.Span
module Obs = Fc_obs.Obs
module Jsonx = Fc_obs.Jsonx
module Export = Fc_obs.Export
module Action = Fc_machine.Action
module Process = Fc_machine.Process
module Os = Fc_machine.Os
module Image = Fc_kernel.Image
module Hyp = Fc_hypervisor.Hypervisor
module Profiler = Fc_profiler.Profiler
module Facechange = Fc_core.Facechange
module Stats = Fc_core.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let image = lazy (Image.build_exn ())

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let test_ring_order () =
  let r = Ring.create ~capacity:4 in
  check_int "empty length" 0 (Ring.length r);
  check_bool "no last" true (Ring.last r = None);
  List.iter (Ring.push r) [ 1; 2; 3 ];
  check_int "length" 3 (Ring.length r);
  check_int "pushed" 3 (Ring.pushed r);
  check_int "dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (Ring.to_list r);
  check_bool "last" true (Ring.last r = Some 3)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  check_int "length capped" 4 (Ring.length r);
  check_int "pushed counts everything" 10 (Ring.pushed r);
  check_int "dropped = pushed - held" 6 (Ring.dropped r);
  Alcotest.(check (list int)) "most recent window" [ 7; 8; 9; 10 ]
    (Ring.to_list r);
  let seen = ref [] in
  Ring.iter (fun x -> seen := x :: !seen) r;
  Alcotest.(check (list int)) "iter oldest first" [ 7; 8; 9; 10 ]
    (List.rev !seen)

let test_ring_clear_and_capacity () =
  let r = Ring.create ~capacity:2 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Ring.clear r;
  check_int "cleared" 0 (Ring.length r);
  check_int "counters reset" 0 (Ring.pushed r);
  check_int "dropped reset" 0 (Ring.dropped r);
  Ring.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Ring.to_list r);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Ring.create: capacity must be >= 1") (fun () ->
      ignore (Ring.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_golden () =
  let j =
    Jsonx.Obj
      [
        ("a", Jsonx.Int 1);
        ("b", Jsonx.List [ Jsonx.Bool true; Jsonx.Null ]);
        ("s", Jsonx.String "he\"llo\n");
        ("f", Jsonx.Float 1.5);
      ]
  in
  check_string "compact form"
    "{\"a\":1,\"b\":[true,null],\"s\":\"he\\\"llo\\n\",\"f\":1.5}"
    (Jsonx.to_string j)

let test_json_nonfinite_is_null () =
  check_string "nan" "null" (Jsonx.to_string (Jsonx.Float Float.nan));
  check_string "inf" "null" (Jsonx.to_string (Jsonx.Float Float.infinity));
  check_string "neg inf" "null"
    (Jsonx.to_string (Jsonx.Float Float.neg_infinity));
  (* inside a structure the document must stay valid JSON *)
  let doc = Jsonx.to_string (Jsonx.Obj [ ("x", Jsonx.Float Float.nan) ]) in
  check_string "embedded" "{\"x\":null}" doc;
  check_bool "still parses" true (Result.is_ok (Jsonx.of_string doc))

let test_json_roundtrip () =
  let j =
    Jsonx.Obj
      [
        ("neg", Jsonx.Int (-42));
        ("pi", Jsonx.Float 3.141592653589793);
        ("nested", Jsonx.Obj [ ("l", Jsonx.List [ Jsonx.String "x=y,z" ]) ]);
        ("empty_obj", Jsonx.Obj []);
        ("empty_list", Jsonx.List []);
      ]
  in
  (match Jsonx.of_string (Jsonx.to_string j) with
  | Ok j' -> check_bool "roundtrip" true (j = j')
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e);
  (* pretty form parses back to the same value too *)
  match Jsonx.of_string (Jsonx.to_string ~pretty:true j) with
  | Ok j' -> check_bool "pretty roundtrip" true (j = j')
  | Error e -> Alcotest.failf "pretty parse failed: %s" e

let test_json_parse_escapes () =
  (match Jsonx.of_string "\"\\u0041\\t\\\\\"" with
  | Ok (Jsonx.String s) -> check_string "escapes" "A\t\\" s
  | Ok _ | Error _ -> Alcotest.fail "escape parse failed");
  check_bool "truncated doc rejected" true
    (Result.is_error (Jsonx.of_string "{\"a\": 1"));
  check_bool "trailing garbage rejected" true
    (Result.is_error (Jsonx.of_string "1 2"));
  check_bool "bare word rejected" true
    (Result.is_error (Jsonx.of_string "nope"));
  (match Jsonx.of_string "\"\\ud83d\\ude00\"" with
  | Ok (Jsonx.String s) -> check_string "surrogate pair" "\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "surrogate pair parse failed");
  (* bad \u escapes are errors with an offset, not exceptions, and a
     high surrogate never pairs with something that is not a low one *)
  List.iter
    (fun doc ->
      match Jsonx.of_string doc with
      | Error e ->
          check_bool ("offset in: " ^ e) true
            (String.starts_with ~prefix:"at " e)
      | Ok _ -> Alcotest.failf "accepted %S" doc)
    [ "\"\\uZZZZ\""; "\"\\u+123\""; "\"\\u00_1\""; "\"\\u12\"";
      "\"\\uD800\\u0041\""; "\"\\uD800\""; "\"\\uDBFFx\"" ]

(* The parser is total: arbitrary bytes, and byte-mutated serializations
   of random values, give Ok or Error and never raise. *)
let gen_json =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return Jsonx.Null; map (fun b -> Jsonx.Bool b) bool;
               map (fun i -> Jsonx.Int i) int;
               map (fun f -> Jsonx.Float f) float;
               map (fun s -> Jsonx.String s) string ]
         in
         if n = 0 then leaf
         else
           let sub g = list_size (int_bound 4) g in
           let child = self (n / 4) in
           frequency
             [ (2, leaf);
               (1, map (fun l -> Jsonx.List l) (sub child));
               (1, map (fun l -> Jsonx.Obj l) (sub (pair string child))) ])

let json_alphabet = "\\u\"{}[],: 0123456789abcdefABCDEF+-.eEtrulsnxZ_\n"

let prop_json_total_on_bytes =
  let gen =
    QCheck.Gen.(
      let jsonish =
        string_of
          (map (String.get json_alphabet)
             (int_bound (String.length json_alphabet - 1)))
      in
      oneof [ string; jsonish; map (( ^ ) "\"\\u") jsonish ])
  in
  QCheck.Test.make ~name:"of_string never raises on arbitrary strings"
    ~count:1000 (QCheck.make ~print:(Printf.sprintf "%S") gen) (fun s ->
      match Jsonx.of_string s with Ok _ | Error _ -> true)

let prop_json_total_on_mutations =
  let gen =
    QCheck.Gen.(
      triple gen_json (list_size (int_range 1 4) (pair nat char)) bool)
  in
  let mutate (v, edits, pretty) =
    let b = Bytes.of_string (Jsonx.to_string ~pretty v) in
    List.iter
      (fun (i, c) ->
        if Bytes.length b > 0 then Bytes.set b (i mod Bytes.length b) c)
      edits;
    Bytes.to_string b
  in
  QCheck.Test.make ~name:"of_string never raises on mutated serializations"
    ~count:1000
    (QCheck.make ~print:(fun x -> Printf.sprintf "%S" (mutate x)) gen)
    (fun x -> match Jsonx.of_string (mutate x) with Ok _ | Error _ -> true)

let test_json_accessors () =
  let j =
    Jsonx.Obj
      [ ("a", Jsonx.Obj [ ("b", Jsonx.Int 7) ]); ("f", Jsonx.Float 2.0) ]
  in
  check_bool "path hit" true (Jsonx.path j [ "a"; "b" ] = Some (Jsonx.Int 7));
  check_bool "path miss" true (Jsonx.path j [ "a"; "zz" ] = None);
  check_bool "int of integral float" true
    (Option.bind (Jsonx.member "f" j) Jsonx.to_int = Some 2)

(* ------------------------------------------------------------------ *)
(* Exporters (golden)                                                  *)
(* ------------------------------------------------------------------ *)

let golden_trace () =
  let t = Trace.create () in
  let now = ref 100 in
  Trace.set_clock t (fun () -> !now);
  Trace.arm ~capacity:8 t;
  Trace.emit t
    (Event.View_switch
       { vid = 0; from_index = 0; to_index = 2; outcome = Event.Switched });
  now := 250;
  Trace.emit t
    (Event.Recovery
       {
         kind = Event.Lazy;
         start = 0x1000;
         stop = 0x1040;
         symbol = "0x1000 <foo>";
       });
  t

let test_export_trace_json_golden () =
  check_string "trace json"
    ("{\"schema_version\":1,\"emitted\":2,\"dropped\":0,\"events\":["
   ^ "{\"seq\":0,\"cycle\":100,\"kind\":\"view_switch\",\"vid\":0,\"from\":0,\"to\":2,\"outcome\":\"switched\"},"
   ^ "{\"seq\":1,\"cycle\":250,\"kind\":\"recovery\",\"recovery\":\"lazy\",\"start\":4096,\"stop\":4160,\"bytes\":64,\"symbol\":\"0x1000 <foo>\"}"
   ^ "]}")
    (Jsonx.to_string (Export.trace_to_json (golden_trace ())))

let test_export_trace_csv_golden () =
  check_string "trace csv"
    ("seq,cycle,kind,args\n"
   ^ "0,100,view_switch,vid=0;from=0;to=2;outcome=switched\n"
   ^ "1,250,recovery,recovery=lazy;start=4096;stop=4160;bytes=64;symbol=0x1000 <foo>\n"
    )
    (Export.trace_to_csv (golden_trace ()))

let golden_metrics () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~subsystem:"fc" "recoveries" in
  Metrics.add c 3;
  Metrics.gauge m ~subsystem:"os" "cycles" (fun () -> 500);
  let h = Metrics.histogram m ~subsystem:"hyp" "charge_cycles" in
  List.iter (Metrics.observe h) [ 1; 2; 300 ];
  m

let test_export_metrics_json_golden () =
  (* percentile floats make an exact string golden brittle; compare
     structurally and pin the interpolated values with a tolerance *)
  let j = Export.metrics_to_json (golden_metrics ()) in
  let int_at path =
    match Option.bind (Jsonx.path j path) Jsonx.to_int with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" (String.concat "." path)
  in
  let float_at path =
    match Option.bind (Jsonx.path j path) Jsonx.to_float with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" (String.concat "." path)
  in
  check_int "counter" 3 (int_at [ "counters"; "fc.recoveries" ]);
  check_int "gauge" 500 (int_at [ "gauges"; "os.cycles" ]);
  let h = [ "histograms"; "hyp.charge_cycles" ] in
  check_int "count" 3 (int_at (h @ [ "count" ]));
  check_int "sum" 303 (int_at (h @ [ "sum" ]));
  check_int "max" 300 (int_at (h @ [ "max" ]));
  (* obs [1;2;300]: p50 lands in the [2,4) bucket, p90/p99 in the last
     bucket which is capped at max+1 = [256,301) *)
  Alcotest.(check (float 1e-9)) "p50" 3.0 (float_at (h @ [ "p50" ]));
  Alcotest.(check (float 1e-9)) "p90" 287.5 (float_at (h @ [ "p90" ]));
  Alcotest.(check (float 1e-9)) "p99" 299.65 (float_at (h @ [ "p99" ]));
  (match Jsonx.path j (h @ [ "buckets" ]) with
  | Some (Jsonx.List buckets) ->
      Alcotest.(check (list (pair int int)))
        "buckets"
        [ (0, 1); (1, 1); (8, 1) ]
        (List.map
           (fun b ->
             match
               ( Option.bind (Jsonx.member "pow2" b) Jsonx.to_int,
                 Option.bind (Jsonx.member "count" b) Jsonx.to_int )
             with
             | Some p, Some c -> (p, c)
             | _ -> Alcotest.fail "malformed bucket")
           buckets)
  | _ -> Alcotest.fail "buckets missing");
  check_bool "document parses back" true
    (Result.is_ok (Jsonx.of_string (Jsonx.to_string j)))

let test_export_metrics_csv_golden () =
  check_string "metrics csv"
    ("kind,subsystem,name,label,value,count,sum,max,p50,p90,p99\n"
   ^ "counter,fc,recoveries,,3,,,,,,\n" ^ "gauge,os,cycles,,500,,,,,,\n"
   ^ "histogram,hyp,charge_cycles,,,3,303,300,3,287.5,299.65\n")
    (Export.metrics_to_csv (golden_metrics ()))

let test_metrics_percentiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~subsystem:"t" "lat" in
  for i = 1 to 100 do
    Metrics.observe h i
  done;
  let snap =
    match Metrics.snapshot m with
    | [ { Metrics.value = Metrics.Histogram s; _ } ] -> s
    | _ -> Alcotest.fail "expected one histogram sample"
  in
  (* uniform 1..100: rank 50 sits 19/32 into the [32,64) bucket, rank 90
     and 99 interpolate inside [64,101) (capped at max+1) *)
  Alcotest.(check (float 1e-6)) "p50" 51.0 (Metrics.percentile snap 0.5);
  Alcotest.(check (float 1e-6))
    "p90"
    (64.0 +. ((90.0 -. 63.0) /. 37.0 *. 37.0))
    (Metrics.percentile snap 0.9);
  Alcotest.(check (float 1e-6))
    "p99"
    (64.0 +. ((99.0 -. 63.0) /. 37.0 *. 37.0))
    (Metrics.percentile snap 0.99);
  (* estimates are monotone in q and bounded by the observed range *)
  let p q = Metrics.percentile snap q in
  check_bool "monotone" true (p 0.5 <= p 0.9 && p 0.9 <= p 0.99);
  check_bool "bounded" true (p 0.99 <= 101.0 && p 0.01 >= 0.0);
  (* an empty histogram has no quantiles: nan, never a fake 0 that
     downstream math could mistake for a real observation *)
  Metrics.reset_histogram h;
  let snap' =
    match Metrics.snapshot m with
    | [ { Metrics.value = Metrics.Histogram s; _ } ] -> s
    | _ -> Alcotest.fail "expected one histogram sample"
  in
  check_bool "empty is nan" true (Float.is_nan (Metrics.percentile snap' 0.99))

let test_metrics_labeled_families () =
  let m = Metrics.create () in
  let fam = Metrics.counter_family m ~subsystem:"os" "run_cycles" in
  Metrics.add (Metrics.family_counter fam "top") 10;
  Metrics.add (Metrics.family_counter fam "vim") 5;
  (* find-or-create: same label resolves to the same counter *)
  Metrics.add (Metrics.family_counter fam "top") 7;
  Alcotest.(check (list (pair string int)))
    "labels in registration order"
    [ ("top", 17); ("vim", 5) ]
    (Metrics.labels m "os.run_cycles");
  (* labeled members surface in snapshots under sub.name{label} *)
  let keys =
    List.map
      (fun (s : Metrics.sample) ->
        (s.Metrics.subsystem ^ "." ^ s.Metrics.name, s.Metrics.label))
      (Metrics.snapshot m)
  in
  check_bool "labeled sample present" true
    (List.mem ("os.run_cycles", Some "top") keys);
  Metrics.reset_family fam;
  Alcotest.(check (list (pair string int)))
    "reset keeps members, zeroes values"
    [ ("top", 0); ("vim", 0) ]
    (Metrics.labels m "os.run_cycles")

let test_export_csv_quoting () =
  let t = Trace.create () in
  Trace.arm t;
  Trace.emit t
    (Event.Sched_switch { vid = 0; pid = 7; comm = "a,b\"c" });
  let csv = Export.trace_to_csv t in
  check_string "quoted args" "seq,cycle,kind,args\n0,0,sched_switch,\"vid=0;pid=7;comm=a,b\"\"c\"\n" csv

(* ------------------------------------------------------------------ *)
(* Span tracker                                                        *)
(* ------------------------------------------------------------------ *)

let span_events sink =
  List.filter_map
    (fun (r : Trace.record) ->
      match r.Trace.event with
      | (Event.Span_begin _ | Event.Span_end _) as e -> Some e
      | _ -> None)
    (Trace.records sink)

let test_span_disarmed_is_free () =
  let sink = Trace.create () in
  let sp = Span.create sink in
  let sid = Span.enter sp Span.Recovery in
  check_bool "disarmed enter returns none" true (sid = Span.none);
  Span.exit sp sid;
  check_int "nothing emitted" 0 (Trace.emitted sink);
  check_int "no open spans" 0 (Span.depth sp ())

let test_span_balanced_nesting () =
  let sink = Trace.create () in
  Trace.arm ~capacity:16 sink;
  let sp = Span.create sink in
  let outer = Span.enter sp ~vid:0 ~pid:7 ~comm:"top" Span.Exit_handling in
  let inner = Span.enter sp ~vid:0 ~pid:7 ~comm:"top" Span.Backtrace in
  check_int "two open" 2 (Span.depth sp ());
  Span.exit sp inner;
  Span.exit sp outer;
  check_int "all closed" 0 (Span.depth sp ());
  match span_events sink with
  | [
   Event.Span_begin { sid = b1; parent = p1; span = "exit_handling"; _ };
   Event.Span_begin { sid = b2; parent = p2; span = "backtrace"; _ };
   Event.Span_end { sid = e1; _ };
   Event.Span_end { sid = e2; _ };
  ] ->
      check_bool "inner parented on outer" true (p2 = b1 && p1 = Span.none);
      check_bool "LIFO close order" true (e1 = b2 && e2 = b1)
  | evs -> Alcotest.failf "unexpected stream (%d events)" (List.length evs)

let test_span_exit_autocloses_children () =
  let sink = Trace.create () in
  Trace.arm ~capacity:16 sink;
  let sp = Span.create sink in
  let outer = Span.enter sp Span.Run_slice in
  let _inner = Span.enter sp Span.Exit_handling in
  let _innermost = Span.enter sp Span.Backtrace in
  (* closing the root must pop the two children first so the event
     stream stays well-nested for any trace viewer *)
  Span.exit sp outer;
  check_int "stack drained" 0 (Span.depth sp ());
  let ends =
    List.filter_map
      (function Event.Span_end { span; _ } -> Some span | _ -> None)
      (span_events sink)
  in
  Alcotest.(check (list string))
    "children closed innermost-first"
    [ "backtrace"; "exit_handling"; "run_slice" ]
    ends;
  (* spans on different vCPUs keep independent stacks *)
  let a = Span.enter sp ~vid:0 Span.Run_slice in
  let _b = Span.enter sp ~vid:1 Span.Run_slice in
  Span.exit sp a;
  check_int "vid 1 untouched" 1 (Span.depth sp ~vid:1 ());
  check_int "vid 0 drained" 0 (Span.depth sp ~vid:0 ())

(* ------------------------------------------------------------------ *)
(* Layer accountant                                                    *)
(* ------------------------------------------------------------------ *)

module Layers = Fc_obs.Layers

let check_s = Alcotest.(check (float 1e-9))

(* A fake clock the test moves by hand: every interval's layer is known
   exactly. *)
let test_layers_fake_clock () =
  let now = ref 0. in
  let at t = now := t in
  let l = Layers.create ~clock:(fun () -> !now) in
  let sink = Trace.create () in
  Layers.attach l sink;
  let sp = Span.create sink in
  Layers.time l (fun () ->
      at 1.;
      (* 0..1 no span open: sched *)
      let rs = Span.enter sp Span.Run_slice in
      at 3.;
      let ex = Span.enter sp Span.Exit_handling in
      at 4.;
      let bt = Span.enter sp Span.Backtrace in
      at 4.5;
      (* 4..4.5 goes to the innermost span only *)
      Span.exit sp bt;
      at 5.;
      Span.exit sp ex;
      at 7.;
      Span.exit sp rs;
      at 10.);
  check_s "total is the stretch" 10. (Layers.total l);
  check_s "sched: 0..1 and 7..10" 4. (Layers.self l "sched");
  check_s "run_slice: 1..3 and 5..7" 4. (Layers.self l "run_slice");
  check_s "exit_handling: its own time only" 1.5
    (Layers.self l "exit_handling");
  check_s "backtrace" 0.5 (Layers.self l "backtrace");
  check_s "recovery" 0. (Layers.self l "recovery");
  check_s "an unknown name" 0. (Layers.self l "nope");
  let sum () =
    List.fold_left (fun acc n -> acc +. Layers.self l n) 0. Layers.layers
  in
  check_s "layers sum to the total" (Layers.total l) (sum ());
  (* outside a stretch nothing is charged; spans are still followed *)
  at 20.;
  let vb = Span.enter sp Span.View_build in
  at 25.;
  Layers.time l (fun () -> at 26.);
  Span.exit sp vb;
  check_s "only the stretch's second" 11. (Layers.total l);
  check_s "to the span open over it" 1. (Layers.self l "view_build");
  Alcotest.check_raises "stretches do not nest"
    (Invalid_argument "Layers.time: stretches do not nest") (fun () ->
      Layers.time l (fun () -> Layers.time l ignore));
  (* a new guest starts from no open span; the old one is ignored *)
  let (_ : int) = Span.enter sp Span.Recovery in
  let other = Trace.create () in
  Layers.attach l other;
  Layers.time l (fun () ->
      at 27.;
      let (_ : int) = Span.enter sp Span.Recovery in
      at 28.);
  check_s "the old guest's spans charge nothing" 0.
    (Layers.self l "recovery");
  check_s "sum after three stretches" (Layers.total l) (sum ());
  match Layers.to_json l with
  | Jsonx.Obj kvs ->
      Alcotest.(check (list string)) "json keys" Layers.layers
        (List.map fst kvs)
  | _ -> Alcotest.fail "to_json is not an object"

(* ------------------------------------------------------------------ *)
(* Trace sink mechanics                                                *)
(* ------------------------------------------------------------------ *)

let test_trace_disarmed_records_nothing () =
  let t = Trace.create () in
  check_bool "starts disarmed" false (Trace.armed t);
  Trace.emit t (Event.Frame_share { frame = 1 });
  check_int "nothing recorded" 0 (Trace.emitted t);
  check_bool "no records" true (Trace.records t = []);
  Trace.arm ~capacity:2 t;
  check_bool "armed" true (Trace.armed t);
  List.iter (fun f -> Trace.emit t (Event.Frame_share { frame = f })) [ 1; 2; 3 ];
  check_int "emitted" 3 (Trace.emitted t);
  check_int "ring dropped oldest" 1 (Trace.dropped t);
  Trace.disarm t;
  check_bool "disarmed again" false (Trace.armed t)

let test_trace_subscribers () =
  let t = Trace.create () in
  let seen = ref [] in
  Trace.subscribe t (fun r -> seen := r.Trace.event :: !seen);
  check_bool "subscriber arms the sink" true (Trace.armed t);
  Trace.emit t (Event.Frame_share { frame = 5 });
  check_int "delivered" 1 (List.length !seen);
  check_bool "no ring yet" true (Trace.records t = []);
  Trace.clear_subscribers t;
  check_bool "disarmed after clear" false (Trace.armed t)

(* ------------------------------------------------------------------ *)
(* Events == Stats.capture on a real run                               *)
(* ------------------------------------------------------------------ *)

let toplike_script n =
  Action.repeat n
    [
      Action.Syscall "open:proc";
      Action.Syscall "read:proc:stat";
      Action.Syscall "close";
      Action.Syscall "write:tty";
      Action.Compute 20_000;
    ]
  @ [ Action.Exit ]

let toplike_config =
  lazy
    (Profiler.profile_app (Lazy.force image) ~name:"toplike"
       (toplike_script 24))

let test_events_match_stats () =
  (* the runtime clocksource differs from the profiled one, so the run is
     guaranteed to exercise the UD2 recovery path too *)
  let os = Os.create ~config:Os.runtime_config (Lazy.force image) in
  (* subscribe before anything attaches so every emission is counted *)
  let counts = Hashtbl.create 16 in
  let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  let recovered_bytes = ref 0 in
  Trace.subscribe
    (Obs.trace (Os.obs os))
    (fun r ->
      (match r.Trace.event with
      | Event.View_switch { outcome; _ } ->
          bump ("switch:" ^ Event.outcome_label outcome)
      | Event.Vm_exit { reason; _ } ->
          bump ("exit:" ^ Event.reason_label reason)
      | Event.Recovery { kind; start; stop; _ } ->
          recovered_bytes := !recovered_bytes + (stop - start);
          bump ("recovery:" ^ Event.recovery_label kind)
      | e -> bump (Event.kind e));
      ());
  let hyp = Hyp.attach os in
  let fc = Facechange.enable hyp in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  let p = Os.spawn os ~name:"toplike" (toplike_script 6) in
  let q =
    Os.spawn os ~name:"idler"
      (Action.repeat 8 [ Action.Compute 5_000 ] @ [ Action.Exit ])
  in
  Os.run os;
  check_bool "both completed" true
    (Process.is_exited p && Process.is_exited q);
  let n k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  let s = Stats.capture fc in
  check_bool "run produced switches" true (s.Stats.view_switches > 0);
  check_bool "run produced recoveries" true (s.Stats.recoveries > 0);
  check_int "switched events" s.Stats.view_switches (n "switch:switched");
  check_int "skipped events" s.Stats.switches_skipped (n "switch:skipped");
  check_int "deferred events" s.Stats.switches_deferred (n "switch:deferred");
  check_int "breakpoint exits" s.Stats.breakpoint_exits (n "exit:breakpoint");
  check_int "invalid opcode exits" s.Stats.invalid_opcode_exits
    (n "exit:invalid_opcode");
  check_int "ud2 traps = handled invalid opcodes" s.Stats.invalid_opcode_exits
    (n "ud2_trap");
  check_int "lazy recoveries" s.Stats.recoveries (n "recovery:lazy");
  check_int "recovered bytes" s.Stats.recovered_bytes !recovered_bytes;
  check_int "cow breaks" s.Stats.cow_breaks (n "cow_break");
  check_int "sched switches" s.Stats.context_switches (n "sched_switch");
  check_int "view loads" s.Stats.views_loaded (n "view_load")

let test_stats_json_valid_and_complete () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable hyp in
  (* empty run: nothing executed, divisions must stay finite *)
  let s = Stats.capture fc in
  check_int "no cycles" 0 s.Stats.guest_cycles;
  Alcotest.(check (float 0.)) "overhead guarded" 0. (Stats.overhead_fraction s);
  let doc = Jsonx.to_string (Stats.to_json s) in
  check_bool "no nan leaks" true (Result.is_ok (Jsonx.of_string doc));
  (* every Stats field appears in the JSON under its own name *)
  match Jsonx.of_string doc with
  | Error e -> Alcotest.failf "stats json: %s" e
  | Ok j ->
      List.iter
        (fun (k, v) ->
          match Option.bind (Jsonx.member k j) Jsonx.to_int with
          | Some jv -> check_int k v jv
          | None -> Alcotest.failf "missing stats field %s" k)
        (Stats.fields s);
      check_bool "overhead present" true
        (Jsonx.member "overhead_fraction" j <> None)

let test_metrics_export_covers_registry () =
  (* the exporters must see exactly what the registry sees, on a guest
     that actually ran *)
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable hyp in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  let (_ : Process.t) = Os.spawn os ~name:"toplike" (toplike_script 3) in
  Os.run os;
  let m = Obs.metrics (Os.obs os) in
  let j = Export.metrics_to_json m in
  let s = Stats.capture fc in
  let get key =
    match Option.bind (Jsonx.path j [ "counters"; key ]) Jsonx.to_int with
    | Some v -> v
    | None -> (
        match Option.bind (Jsonx.path j [ "gauges"; key ]) Jsonx.to_int with
        | Some v -> v
        | None -> Alcotest.failf "metric %s missing from export" key)
  in
  check_int "fc.view_switches" s.Stats.view_switches (get "fc.view_switches");
  check_int "fc.recoveries" s.Stats.recoveries (get "fc.recoveries");
  check_int "os.cycles" s.Stats.guest_cycles (get "os.cycles");
  check_int "hyp.cycles_charged" s.Stats.hypervisor_cycles
    (get "hyp.cycles_charged");
  check_int "mem gauge tracks phys" (Fc_mem.Phys_mem.live_frames (Os.phys os))
    (get "mem.live_frames")

(* ------------------------------------------------------------------ *)
(* Timeline on a real run                                              *)
(* ------------------------------------------------------------------ *)

let test_timeline_full_run () =
  let os = Os.create ~config:Os.runtime_config (Lazy.force image) in
  (* arm before attach so view-build spans are captured too *)
  Trace.arm ~capacity:65536 (Obs.trace (Os.obs os));
  let hyp = Hyp.attach os in
  let fc = Facechange.enable hyp in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  let (_ : Process.t) = Os.spawn os ~name:"toplike" (toplike_script 6) in
  let (_ : Process.t) =
    Os.spawn os ~name:"idler"
      (Action.repeat 8 [ Action.Compute 5_000 ] @ [ Action.Exit ])
  in
  Os.run os;
  let stats = Stats.capture fc in
  (* raw stream invariants: every Span_end matches an open Span_begin,
     closes are LIFO per vCPU, and a begin's parent is the stack top *)
  let open_spans : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4 in
  let begins = ref 0 in
  List.iter
    (fun (r : Trace.record) ->
      match r.Trace.event with
      | Event.Span_begin { sid; parent; vid; _ } ->
          incr begins;
          let st = Option.value ~default:[] (Hashtbl.find_opt stacks vid) in
          check_int "parent is enclosing span"
            (match st with top :: _ -> top | [] -> 0)
            parent;
          Hashtbl.replace stacks vid (sid :: st);
          Hashtbl.replace open_spans sid vid
      | Event.Span_end { sid; _ } -> (
          match Hashtbl.find_opt open_spans sid with
          | None -> Alcotest.failf "span end %d without an open begin" sid
          | Some vid -> (
              Hashtbl.remove open_spans sid;
              match Hashtbl.find_opt stacks vid with
              | Some (top :: rest) when top = sid ->
                  Hashtbl.replace stacks vid rest
              | _ -> Alcotest.failf "span %d closed out of LIFO order" sid))
      | _ -> ())
    (Trace.records (Obs.trace (Os.obs os)));
  check_bool "run produced spans" true (!begins > 0);
  check_int "every span closed by run end" 0 (Hashtbl.length open_spans);
  (* the exported timeline round-trips through the JSON parser *)
  let doc =
    Jsonx.to_string ~pretty:true
      (Export.timeline_to_json
         ~extra:[ ("stats", Stats.to_json stats) ]
         (Obs.trace (Os.obs os)))
  in
  match Jsonx.of_string doc with
  | Error e -> Alcotest.failf "timeline does not parse: %s" e
  | Ok j ->
      (match Jsonx.path j [ "traceEvents" ] with
      | Some (Jsonx.List evs) ->
          check_bool "timeline has events" true (evs <> [])
      | _ -> Alcotest.fail "traceEvents missing");
      (* per-app attribution sums to the globals in the same snapshot *)
      let apps =
        match Jsonx.path j [ "stats"; "per_app" ] with
        | Some (Jsonx.Obj apps) -> apps
        | _ -> Alcotest.fail "stats.per_app missing"
      in
      check_bool "both apps attributed" true
        (List.mem_assoc "toplike" apps && List.mem_assoc "idler" apps);
      let sum field =
        List.fold_left
          (fun acc (_, a) ->
            acc
            + Option.value ~default:0
                (Option.bind (Jsonx.path a [ field ]) Jsonx.to_int))
          0 apps
      in
      check_int "per-app switches sum to global" stats.Stats.view_switches
        (sum "view_switches");
      check_int "per-app recoveries sum to global" stats.Stats.recoveries
        (sum "recoveries");
      check_int "per-app recovered bytes sum to global"
        stats.Stats.recovered_bytes (sum "recovered_bytes");
      check_int "per-app charged cycles sum to global"
        stats.Stats.hypervisor_cycles (sum "cycles_charged");
      check_int "per-app run cycles sum to guest cycles"
        stats.Stats.guest_cycles (sum "run_cycles")

(* Observing a run must not change it: the same guest run untraced and
   with a trace subscriber ends with the same registry, the fast
   engine's TLB and superblock counters included. *)
let test_subscriber_moves_no_counter () =
  let run engine ~traced =
    let os = Os.create ~config:Os.runtime_config ~engine (Lazy.force image) in
    if traced then Trace.subscribe (Obs.trace (Os.obs os)) ignore;
    let hyp = Hyp.attach os in
    let fc = Facechange.enable hyp in
    let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
    let (_ : Process.t) = Os.spawn os ~name:"toplike" (toplike_script 6) in
    let (_ : Process.t) =
      Os.spawn os ~name:"idler"
        (Action.repeat 8 [ Action.Compute 5_000 ] @ [ Action.Exit ])
    in
    Os.run os;
    List.map
      (fun (s : Metrics.sample) ->
        Printf.sprintf "%s.%s{%s} = %s" s.Metrics.subsystem s.Metrics.name
          (Option.value s.Metrics.label ~default:"")
          (match s.Metrics.value with
          | Metrics.Counter n | Metrics.Gauge n -> string_of_int n
          | Metrics.Histogram h ->
              Printf.sprintf "%d/%d/%d" h.h_count h.h_sum h.h_max))
      (Metrics.dump (Obs.metrics (Os.obs os)))
  in
  List.iter
    (fun engine ->
      Alcotest.(check (list string))
        (Os.engine_name engine ^ ": same registry traced")
        (run engine ~traced:false) (run engine ~traced:true))
    [ Os.Reference; Os.Fast ]

(* ------------------------------------------------------------------ *)
(* Recovery log JSON                                                   *)
(* ------------------------------------------------------------------ *)

let test_recovery_log_json () =
  let module Rl = Fc_core.Recovery_log in
  let log = Rl.create () in
  Rl.add log
    {
      Rl.cycle = 42;
      pid = 7;
      comm = "top";
      view_app = "top";
      fault_addr = 0x1000;
      recovered = [ (0x1000, 0x1040, "0x1000 <foo+0x0>") ];
      instant = [];
      backtrace =
        [
          { Rl.addr = 0x1000; rendered = "0x1000 <foo+0x0>"; view_bytes = [ 0xf; 0xb ] };
          { Rl.addr = 0x2000; rendered = "0x2000 <bar+0x8>"; view_bytes = [] };
        ];
      interrupt_context = false;
      unknown_frames = true;
    };
  let doc = Jsonx.to_string ~pretty:true (Rl.to_json log) in
  match Jsonx.of_string doc with
  | Error e -> Alcotest.failf "recovery log json: %s" e
  | Ok j ->
      check_bool "count" true (Jsonx.path j [ "count" ] = Some (Jsonx.Int 1));
      let e =
        match Jsonx.path j [ "entries" ] with
        | Some (Jsonx.List [ e ]) -> e
        | _ -> Alcotest.fail "expected one entry"
      in
      check_bool "cycle" true (Jsonx.path e [ "cycle" ] = Some (Jsonx.Int 42));
      check_bool "flags survive" true
        (Jsonx.path e [ "unknown_frames" ] = Some (Jsonx.Bool true)
        && Jsonx.path e [ "interrupt_context" ] = Some (Jsonx.Bool false));
      (match Jsonx.path e [ "recovered" ] with
      | Some (Jsonx.List [ r ]) ->
          check_bool "recovered bytes derived" true
            (Jsonx.path r [ "bytes" ] = Some (Jsonx.Int 0x40))
      | _ -> Alcotest.fail "recovered range missing");
      (* callers = backtrace minus the faulting head frame *)
      let entry = List.hd (Rl.entries log) in
      Alcotest.(check (list string))
        "callers drop the head"
        [ "0x2000 <bar+0x8>" ]
        (List.map (fun f -> f.Rl.rendered) (Rl.callers entry))

let suites =
  [
    ( "obs-ring",
      [
        Alcotest.test_case "push order and counters" `Quick test_ring_order;
        Alcotest.test_case "wraparound keeps newest, counts drops" `Quick
          test_ring_wraparound;
        Alcotest.test_case "clear resets; capacity validated" `Quick
          test_ring_clear_and_capacity;
      ] );
    ( "obs-json",
      [
        Alcotest.test_case "golden serialization" `Quick test_json_golden;
        Alcotest.test_case "non-finite floats emit null" `Quick
          test_json_nonfinite_is_null;
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "escape parsing and rejects" `Quick
          test_json_parse_escapes;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_json_total_on_bytes; prop_json_total_on_mutations ] );
    ( "obs-export",
      [
        Alcotest.test_case "trace json golden" `Quick
          test_export_trace_json_golden;
        Alcotest.test_case "trace csv golden" `Quick
          test_export_trace_csv_golden;
        Alcotest.test_case "metrics json golden" `Quick
          test_export_metrics_json_golden;
        Alcotest.test_case "metrics csv golden" `Quick
          test_export_metrics_csv_golden;
        Alcotest.test_case "csv quoting" `Quick test_export_csv_quoting;
      ] );
    ( "obs-metrics",
      [
        Alcotest.test_case "histogram percentiles" `Quick
          test_metrics_percentiles;
        Alcotest.test_case "labeled families" `Quick
          test_metrics_labeled_families;
      ] );
    ( "obs-span",
      [
        Alcotest.test_case "disarmed enter is free" `Quick
          test_span_disarmed_is_free;
        Alcotest.test_case "balanced nesting" `Quick test_span_balanced_nesting;
        Alcotest.test_case "exit auto-closes children" `Quick
          test_span_exit_autocloses_children;
      ] );
    ( "obs-layers",
      [
        Alcotest.test_case "innermost span pays, sched the rest, sums hold"
          `Quick test_layers_fake_clock;
      ] );
    ( "obs-trace",
      [
        Alcotest.test_case "disarmed sink records nothing" `Quick
          test_trace_disarmed_records_nothing;
        Alcotest.test_case "subscribers arm and receive" `Quick
          test_trace_subscribers;
      ] );
    ( "obs-invariants",
      [
        Alcotest.test_case "events match Stats.capture" `Quick
          test_events_match_stats;
        Alcotest.test_case "stats json is valid and complete" `Quick
          test_stats_json_valid_and_complete;
        Alcotest.test_case "metrics export covers the registry" `Quick
          test_metrics_export_covers_registry;
        Alcotest.test_case "timeline spans balance on a full run" `Quick
          test_timeline_full_run;
        Alcotest.test_case "a trace subscriber moves no counter" `Quick
          test_subscriber_moves_no_counter;
        Alcotest.test_case "recovery log json" `Quick test_recovery_log_json;
      ] );
  ]
