(* The bench artifact gate (bench/checker.ml): every golden leaf is gated
   by its path, every named relation passes and fails by name, and a bad
   artifact is a recorded failure naming its file, never an exception. *)

module J = Fc_obs.Jsonx
module Checker = Fc_checker.Checker

let pins = "../bench/pins"
let ids = [ "label"; "domains"; "arm"; "seed" ]

let parse s =
  match J.of_string s with Ok j -> j | Error e -> Alcotest.failf "%s: %s" s e

let read path = In_channel.with_open_bin path In_channel.input_all
let names prefix fs = List.filter (String.starts_with ~prefix) fs

(* Every leaf below [v] as [(parent, key, value, set)]: [set (Some x)]
   rebuilds the whole document with the leaf replaced by [x], [set None]
   with its key deleted.  Paths are spelled as the golden format says:
   [list[id]] for an element with an identifying field, else
   [list[#index]]. *)
let rec leaves path v set =
  match v with
  | J.Obj kvs ->
      List.concat_map
        (fun (k, x) ->
          let rebuild r =
            set
              (J.Obj
                 (List.filter_map
                    (fun (k', x') ->
                      if k' <> k then Some (k', x')
                      else Option.map (fun r -> (k, r)) r)
                    kvs))
          in
          let p = if path = "" then k else path ^ "." ^ k in
          match x with
          | J.Obj (_ :: _) | J.List (_ :: _) ->
              leaves p x (fun y -> rebuild (Some y))
          | _ -> [ (path, k, x, rebuild) ])
        kvs
  | J.List xs ->
      List.concat
        (List.mapi
           (fun i x ->
             let id =
               List.find_map
                 (fun k ->
                   match J.member k x with
                   | None | Some J.Null -> None
                   | Some (J.String s) -> Some s
                   | Some v -> Some (J.to_string v))
                 ids
             in
             let id = Option.value id ~default:("#" ^ string_of_int i) in
             let put y = List.mapi (fun j x -> if i = j then y else x) xs in
             leaves (Printf.sprintf "%s[%s]" path id) x (fun y ->
                 set (J.List (put y))))
           xs)
  | _ -> []

let changed = function
  | J.Int n -> [ J.Int (n + 1) ]
  | J.Bool b -> [ J.Bool (not b) ]
  | J.String s -> [ J.String (s ^ "~") ]
  | J.List [] -> [ J.List [ J.Null ] ]
  | J.Obj [] -> [ J.Int 0 ]
  | _ -> []

(* Start from an artifact equal to the golden and perturb one leaf: the
   comparator must report it by path (an identifying field by its
   element's path, which then goes missing). *)
let test_golden_leaves () =
  let files =
    Sys.readdir pins |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
  in
  Alcotest.(check int) "goldens" 8 (List.length files);
  Alcotest.(check (list string)) "a float is refused"
    [ "x: a golden may hold no floats" ]
    (Checker.diff (parse {|{"x": 1.5}|}) (parse {|{"x": 1.5}|}));
  List.iter
    (fun file ->
      let golden = parse (read (Filename.concat pins file)) in
      Alcotest.(check (list string)) (file ^ " accepts itself") []
        (Checker.diff golden golden);
      List.iter
        (fun (parent, key, value, set) ->
          let path = if parent = "" then key else parent ^ "." ^ key in
          List.iter
            (fun perturbed ->
              let fs = Checker.diff golden (set perturbed) in
              if
                names (path ^ ": ") fs = []
                && not (List.mem key ids && names (parent ^ ": ") fs <> [])
              then
                Alcotest.failf "%s: %s perturbed, no failure names it: [%s]"
                  file path (String.concat "; " fs))
            (List.map Option.some (changed value) @ [ None ]))
        (leaves "" golden Fun.id))
    files

(* One hand-built input per relation, and the edit that breaks it. *)
let relation_cases =
  let perf =
    {|{"perf": {"httperf": {"arms": [
        {"label": "reference", "seconds": 1.5, "ips": 2,
         "layers": {"run_slice": 1.25, "sched": 0.25},
         "counters": {"instructions": 5, "cycles": 9}},
        {"label": "fast", "seconds": 0.5, "ips": 6,
         "counters": {"instructions": 5, "cycles": 9, "sb_built": 2,
                      "sb_hits": 4, "i_hits": 3,
                      "i_misses": 1, "d_hits": 3, "d_misses": 1}}]}}}|}
  in
  let fleet =
    {|{"fleet": {
        "pinned": {"cells": [
          {"domains": 1, "fingerprint": "a", "instructions": 7},
          {"domains": 2, "fingerprint": "a", "instructions": 7}]},
        "warm": {"cells": [
          {"domains": 2, "fingerprint": "a", "instructions": 7}]}}}|}
  in
  let timeline =
    {|{"traceEvents": [{"ph": "B", "name": "a", "pid": 0, "tid": 0},
                       {"ph": "E", "name": "a", "pid": 0, "tid": 0}],
       "stats": {"recoveries": 3,
                 "per_app": {"x": {"recoveries": 1}, "y": {"recoveries": 2}}}}|}
  in
  [
    ( "perf-parity", perf,
      ({|"cycles": 9, "sb_built"|}, {|"cycles": 8, "sb_built"|}) );
    ("caches-engaged", perf, ({|"sb_hits": 4|}, {|"sb_hits": 2|}));
    ("finite", perf, ({|"seconds": 0.5|}, {|"seconds": null|}));
    ("layers-sum", perf, ({|"sched": 0.25|}, {|"sched": 0.5|}));
    ( "same-fingerprint", fleet,
      ({|"fingerprint": "a", "instructions": 7}]},|},
       {|"fingerprint": "b", "instructions": 7}]},|}) );
    ( "warm-start", fleet,
      ({|"instructions": 7}]}}}|}, {|"instructions": 8}]}}}|}) );
    ( "dedup-ratio",
      {|{"fleet": {"sweep": [{"unique_frames": 1, "total_frames": 4,
                              "dedup_ratio": 0.75}]}}|},
      ("0.75", "0.5") );
    ( "armed-equals-disarmed",
      {|{"telemetry": {"disarmed_cell": {"fingerprint": "a"},
                       "armed_cells": [{"fingerprint": "a"}]}}|},
      ({|[{"fingerprint": "a"}]|}, {|[{"fingerprint": "b"}]|}) );
    ( "resum",
      {|{"telemetry": {"profile": {"samples": 6, "ticks": 3, "vcpus": 2,
                                   "stacks": 1}}}|},
      ({|"samples": 6|}, {|"samples": 5|}) );
    ( "migrate-rows",
      {|{"migrate": {"rows": [{"final_dirty": 0, "pages_total": 4,
                               "pages_copied": 5, "snapshot_bytes": 9,
                               "downtime_cycles": 3}]}}|},
      ({|"final_dirty": 0|}, {|"final_dirty": 6|}) );
    ( "ungoverned-panics", {|{"governed": {}, "ungoverned": {"panics": 2}}|},
      ({|"panics": 2|}, {|"panics": 0|}) );
    ("spans-nest", timeline, ({|"E", "name": "a"|}, {|"E", "name": "b"|}));
    ("per-app-sums", timeline, ({|"recoveries": 2|}, {|"recoveries": 1|}));
  ]

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not in %s" sub s
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_relations () =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (n, _, _) -> n = name) relation_cases) then
        Alcotest.failf "relation %s has no test case" name)
    Checker.relations;
  List.iter
    (fun (name, doc, (sub, by)) ->
      let good = Checker.check_json ~pins (parse doc) in
      Alcotest.(check (list string)) (name ^ " passes") []
        (names (name ^ ": ") good);
      let bad = Checker.check_json ~pins (parse (replace_first ~sub ~by doc)) in
      if names (name ^ ": ") bad = [] then
        Alcotest.failf "%s: the broken input did not fail it: [%s]" name
          (String.concat "; " bad))
    relation_cases;
  (* the golden snapshot is a fixed point; a truncated copy is not *)
  let golden = "../bench/golden.fcsnap" in
  Alcotest.(check (list string)) "fixed-point passes" []
    (Checker.check ~pins golden);
  let cut = Filename.temp_file "golden" ".fcsnap" in
  Out_channel.with_open_bin cut (fun oc ->
      let s = read golden in
      output_string oc (String.sub s 0 (String.length s / 2)));
  let fs = Checker.check ~pins cut in
  Sys.remove cut;
  if List.length fs <> 1 || names (cut ^ ": fixed-point: ") fs = [] then
    Alcotest.failf "truncated snapshot: [%s]" (String.concat "; " fs)

(* An unknown document, a truncated file and a bad escape are recorded
   failures naming the file; the checker never raises. *)
let test_bad_artifacts () =
  let perf = read (Filename.concat pins "perf.json") in
  List.iter
    (fun (what, contents) ->
      let file = Filename.temp_file "artifact" ".json" in
      Out_channel.with_open_bin file (fun oc -> output_string oc contents);
      let fs = Checker.check ~pins file in
      Sys.remove file;
      if fs = [] || List.length (names (file ^ ": ") fs) <> List.length fs then
        Alcotest.failf "%s: [%s]" what (String.concat "; " fs))
    [
      ("unknown document", {|{"nothing": 1}|});
      ("not an object", "[1, 2]");
      ("truncated file", String.sub perf 0 200);
      ("bad escape", {|{"perf": "\uZZZZ"}|});
      ("unpaired surrogate", {|{"perf": "\uD800A"}|});
    ];
  let missing = "no/such/artifact.json" in
  match Checker.check ~pins missing with
  | [ f ] when String.starts_with ~prefix:(missing ^ ": cannot open") f -> ()
  | fs -> Alcotest.failf "missing file: [%s]" (String.concat "; " fs)

(* check.exe finds the goldens from any directory of the checkout: the
   nearest ancestor holding bench/pins. *)
let test_pins_from_subdirectory () =
  let sub = Filename.concat (Sys.getcwd ()) "pins-probe" in
  let deep = Filename.concat sub "deeper" in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ sub; deep ];
  let found = Checker.find_pins deep in
  Sys.rmdir deep;
  Sys.rmdir sub;
  match found with
  | None -> Alcotest.fail "no bench/pins found above a subdirectory"
  | Some dir ->
      List.iter
        (fun file ->
          Alcotest.(check string) (file ^ " is the checkout's")
            (read (Filename.concat pins file))
            (read (Filename.concat dir file)))
        (Array.to_list (Sys.readdir pins))

let suites =
  [
    ( "bench-check",
      [
        Alcotest.test_case "every golden leaf fails by its path when perturbed"
          `Quick test_golden_leaves;
        Alcotest.test_case "every relation passes and fails by name" `Quick
          test_relations;
        Alcotest.test_case "bad artifacts are failures naming the file" `Quick
          test_bad_artifacts;
        Alcotest.test_case "goldens are found from a subdirectory" `Quick
          test_pins_from_subdirectory;
      ] );
  ]
