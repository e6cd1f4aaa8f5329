(* The bench artifact gate.  Each artifact is compared with its golden,
   bench/pins/<kind>.json, and held to the named relations below: the
   few rules a golden cannot express.  bench/check.ml is its command
   line; the test suite links this module.

   A golden is shaped like the artifact it gates.  An object matches as a
   subset; [null] only requires its key; any other scalar, and the empty
   list, must be equal; floats are refused, so no host time can be
   pinned.  In a non-empty list, an element with an identifying field
   ([label], [domains], [arm] or [seed], not null) must match the
   artifact element with the same value, and an element without one
   applies to every artifact element (of which there must be one).  A
   list of identified elements only is the whole set.

   The kind comes from the content: the FCSN magic of a snapshot, else
   the first of the top-level keys in [kinds].  Every problem is a
   recorded failure naming its file, never an exception, so one bad
   artifact cannot hide another's failures. *)

module J = Fc_obs.Jsonx
module Snapshot = Fc_snapshot.Snapshot

let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

(* Runs [f] and returns the failures it recorded, oldest first. *)
let collect f =
  failures := [];
  f ();
  List.rev !failures

let dot path k = if path = "" then k else path ^ "." ^ k
let field k x = Option.value ~default:J.Null (J.member k x)
let name = function J.String s -> s | v -> J.to_string v

let ident x =
  List.find_map
    (fun k -> match field k x with J.Null -> None | v -> Some (k, v))
    [ "label"; "domains"; "arm"; "seed" ]

(* An element in a path: [path[id]] for a string identifier, else
   [path[#index]] (domain counts repeat across sweep rows). *)
let elem path i x =
  match ident x with
  | Some (_, (J.String _ as id)) -> Printf.sprintf "%s[%s]" path (name id)
  | _ -> Printf.sprintf "%s[#%d]" path i

let show = function
  | J.List (_ :: _) -> "a list"
  | J.Obj (_ :: _) -> "an object"
  | v -> J.to_string v

(* ---------------- the comparator ---------------- *)

let rec walk path golden v =
  match (golden, v) with
  | J.Null, _ -> ()
  | J.Float _, _ -> fail "%s: a golden may hold no floats" path
  | J.Obj gs, J.Obj _ ->
      List.iter
        (fun (k, g) ->
          match J.member k v with
          | Some x -> walk (dot path k) g x
          | None -> fail "%s: missing" (dot path k))
        gs
  | J.List (_ :: _ as gs), J.List xs ->
      let matches g x =
        match ident g with Some (k, id) -> field k x = id | None -> true
      in
      List.iter
        (fun g ->
          match ident g with
          | None ->
              if xs = [] then fail "%s: empty" path;
              List.iteri (fun i x -> walk (elem path i x) g x) xs
          | Some (_, id) -> (
              let p = Printf.sprintf "%s[%s]" path (name id) in
              match List.find_opt (matches g) xs with
              | Some x -> walk p g x
              | None -> fail "%s: missing" p))
        gs;
      if List.for_all (fun g -> ident g <> None) gs then
        List.iteri
          (fun i x ->
            if not (List.exists (fun g -> matches g x) gs) then
              fail "%s: not in the golden" (elem path i x))
          xs
  | _ when golden = v -> ()
  | _ -> fail "%s: expected %s, got %s" path (show golden) (show v)

(* Every missing key, wrong type or drifted value, by its full path. *)
let diff golden v = collect (fun () -> walk "" golden v)

(* ---------------- named relations ---------------- *)

(* Every value at a dotted path below [j], with its spelled path; a [*]
   step walks every list element and object member.  An absent path
   selects nothing: the golden reports what is missing. *)
let at j spec =
  let rec go path j = function
    | [] -> [ (path, j) ]
    | "*" :: rest -> (
        match j with
        | J.List xs ->
            List.concat (List.mapi (fun i x -> go (elem path i x) x rest) xs)
        | J.Obj kvs ->
            List.concat_map (fun (k, x) -> go (dot path k) x rest) kvs
        | _ -> [])
    | k :: rest -> (
        match J.member k j with Some x -> go (dot path k) x rest | None -> [])
  in
  go "" j (String.split_on_char '.' spec)

let get x spec = match at x spec with [ (_, v) ] -> v | _ -> J.Null

exception Not_int of string

(* [int p x k] is field [k] of the object [x] found at [p]; [each] runs
   a check on every selected object, and a field it needs as an int but
   finds missing or mistyped fails that object. *)
let int p x k =
  match J.to_int (field k x) with
  | Some n -> n
  | None -> raise (Not_int (Printf.sprintf "%s.%s is not an int" p k))

let each xs f =
  List.iter (fun (p, x) -> try f p x with Not_int s -> fail "%s" s) xs

(* Every element of [xs] agrees with the first on [specs], each an int
   or a non-empty string. *)
let agree xs specs =
  match xs with
  | [] -> ()
  | (p0, x0) :: _ ->
      List.iter
        (fun (p, x) ->
          List.iter
            (fun s ->
              match get x s with
              | v when v <> get x0 s ->
                  fail "%s.%s is %s, %s.%s is %s" p s (show v) p0 s
                    (show (get x0 s))
              | J.Int _ -> ()
              | J.String s' when s' <> "" -> ()
              | v -> fail "%s.%s is %s, not a count or a fingerprint" p s
                       (show v))
            specs)
        xs

(* reference and fast arms of the same workload, by label suffix *)
let perf_pairs =
  [ ("unixbench", "+views"); ("unixbench", "+noviews"); ("httperf", "") ]

(* per workload pair, the counters of the arm running [engine] *)
let counters j engine =
  List.map
    (fun (section, sfx) ->
      List.find_map
        (fun (p, a) ->
          if field "label" a <> J.String (engine ^ sfx) then None
          else Some (p ^ ".counters", field "counters" a))
        (at j ("perf." ^ section ^ ".arms.*")))
    perf_pairs

let perf_parity j =
  List.iter2
    (fun r f ->
      match (r, f) with
      | Some r, Some f -> agree [ r; f ] [ "instructions"; "cycles" ]
      | _ -> ())
    (counters j "reference") (counters j "fast")

(* the fast arms' caches work: blocks built once and re-run *)
let caches_engaged j =
  each (List.filter_map Fun.id (counters j "fast")) (fun p c ->
      let v = int p c in
      if v "sb_built" = 0 then fail "%s: no blocks built" p;
      List.iter
        (fun (hit, miss) ->
          if v hit <= v miss then
            fail "%s: %s %d do not dominate %s %d" p hit (v hit) miss (v miss))
        [ ("sb_hits", "sb_built"); ("i_hits", "i_misses");
          ("d_hits", "d_misses") ])

(* sharding and the engine are invisible: fingerprints agree across
   domain counts and engine arms *)
let same_fingerprint j =
  let cells = at j "fleet.pinned.cells.*" in
  if cells <> []
     && (List.length cells < 2
        || not (List.exists (fun (_, c) -> field "domains" c = J.Int 1) cells))
  then fail "fleet.pinned.cells: want a 1-domain cell and at least one more";
  agree cells [ "fingerprint" ];
  let rows = at j "fleet.sweep.*" in
  List.iter
    (fun g ->
      agree
        (List.filter (fun (_, r) -> field "guests" r = g) rows)
        [ "fingerprint"; "instructions" ])
    (List.sort_uniq compare (List.map (fun (_, r) -> field "guests" r) rows));
  let armed = at j "telemetry.armed_cells.*" in
  if List.length armed = 1 then fail "telemetry.armed_cells: want two or more";
  agree armed
    [ "telemetry.series_fingerprint"; "telemetry.sampler_fingerprint" ];
  agree (at j "telemetry.matrix.*")
    [ "series_fingerprint"; "sampler_fingerprint" ]

let armed_equals_disarmed j =
  List.iter
    (fun ((p, d) as disarmed) ->
      if J.member "telemetry" d <> None then fail "%s carries telemetry" p;
      agree (disarmed :: at j "telemetry.armed_cells.*") [ "fingerprint" ])
    (at j "telemetry.disarmed_cell")

(* series totals re-sum to the merged stats; one sample per tick and vcpu *)
let resum j =
  each (at j "telemetry.armed_cells.*") (fun p c ->
      let totals = int (p ^ ".telemetry.totals") (get c "telemetry.totals") in
      List.iter
        (fun k ->
          let series = totals ("fc." ^ k) and stats = int p c k in
          if series <> stats then
            fail "%s: series fc.%s re-sums to %d, merged stats say %d" p k
              series stats)
        [ "view_switches"; "recoveries"; "recovered_bytes"; "degradations";
          "quarantines" ]);
  each (at j "telemetry.profile") (fun p x ->
      let n = int p x in
      if n "samples" <> n "ticks" * n "vcpus" then
        fail "%s: %d samples over %d ticks x %d vcpus" p (n "samples")
          (n "ticks") (n "vcpus");
      if n "stacks" <= 0 then fail "%s: the folded-stack profile is empty" p)

let dedup_ratio j =
  each (at j "fleet.pinned.cells.*" @ at j "fleet.sweep.*") (fun p c ->
      let u = int p c "unique_frames" and t = int p c "total_frames" in
      match J.to_float (field "dedup_ratio" c) with
      | _ when t <= 0 -> fail "%s: no frames" p
      | Some r when Float.abs (r -. (1. -. (float u /. float t))) >= 1e-9 ->
          fail "%s: dedup_ratio %g inconsistent with %d/%d frames" p r u t
      | _ -> ())

let migrate_rows j =
  each (at j "migrate.rows.*") (fun p r ->
      let n = int p r in
      if n "final_dirty" > n "pages_total" || n "pages_total" > n "pages_copied"
      then
        fail "%s: want final_dirty %d <= pages_total %d <= pages_copied %d" p
          (n "final_dirty") (n "pages_total") (n "pages_copied");
      if n "snapshot_bytes" <= 0 || n "downtime_cycles" <= 0 then
        fail "%s: snapshot_bytes and downtime_cycles must be positive" p)

(* a chaos matrix nothing dies under proves nothing *)
let ungoverned_panics j =
  each (at j "ungoverned") (fun p u ->
      if int p u "panics" <= 0 then fail "%s: no panics" p)

(* host time is recorded, never compared: present and finite *)
let finite j =
  List.iter
    (fun spec ->
      List.iter
        (fun (p, v) ->
          match J.to_float v with
          | Some f when Float.is_finite f -> ()
          | _ -> fail "%s is not a finite number" p)
        (at j spec))
    [ "results.table1.min_similarity.similarity";
      "results.table1.max_similarity.similarity";
      "results.fig6.sharing.reduction"; "results.fig7.base_capacity";
      "results.fig7.fc_capacity"; "perf.*.arms.*.seconds";
      "perf.*.arms.*.ips"; "fleet.pinned.cells.*.dedup_ratio";
      "fleet.sweep.*.dedup_ratio" ]

(* Every object anywhere in the artifact carrying both [layers] and
   [seconds]: its layers, each a finite number of seconds, sum to within
   5% of [seconds] (a Fc_obs.Layers split sums exactly but for
   rounding). *)
let layers_sum j =
  let rec walk path = function
    | J.Obj kvs as x ->
        (match (J.member "layers" x, J.to_float (field "seconds" x)) with
        | Some (J.Obj (_ :: _ as ls)), Some total ->
            let sum =
              List.fold_left
                (fun acc (k, v) ->
                  match J.to_float v with
                  | Some f when Float.is_finite f && f >= 0. -> acc +. f
                  | _ ->
                      fail "%s: %s is not a finite non-negative number"
                        (dot path "layers") k;
                      acc)
                0. ls
            in
            if Float.abs (sum -. total) > 0.05 *. Float.abs total then
              fail "%s: layers sum to %gs, seconds is %gs" path sum total
        | Some _, Some _ -> fail "%s: not a non-empty object" (dot path "layers")
        | _ -> ());
        List.iter (fun (k, v) -> walk (dot path k) v) kvs
    | J.List xs -> List.iteri (fun i x -> walk (elem path i x) x) xs
    | _ -> ()
  in
  walk "" j

(* on each (pid, tid) track, every E closes the innermost open B *)
let spans_nest j =
  match J.member "traceEvents" j with
  | None -> ()
  | Some (J.List (_ :: _ as events)) ->
      let tracks = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let track = J.to_string (J.List [ field "pid" e; field "tid" e ]) in
          let span = name (field "name" e) in
          let st = Option.value ~default:[] (Hashtbl.find_opt tracks track) in
          match (field "ph" e, st) with
          | J.String "B", _ -> Hashtbl.replace tracks track (span :: st)
          | J.String "E", top :: rest when top = span ->
              Hashtbl.replace tracks track rest
          | J.String "E", _ ->
              fail "E %s closes no innermost open span on %s" span track
          | _ -> ())
        events;
      Hashtbl.iter
        (fun track st ->
          if st <> [] then
            fail "span(s) left open on %s: %s" track (String.concat "," st))
        tracks
  | Some _ -> fail "traceEvents is not a non-empty list"

let per_app_sums j =
  List.iter
    (fun (_, stats) ->
      let n k x = Option.value ~default:0 (J.to_int (field k x)) in
      match field "per_app" stats with
      | J.Obj apps ->
          List.iter
            (fun (k, global) ->
              let sum = List.fold_left (fun acc (_, a) -> acc + n k a) 0 apps in
              if sum <> n global stats then
                fail "per-app %s sums to %d, global %s is %d" k sum global
                  (n global stats))
            [ ("cycles_charged", "hypervisor_cycles");
              ("view_switches", "view_switches"); ("recoveries", "recoveries");
              ("recovered_bytes", "recovered_bytes");
              ("cow_breaks", "cow_breaks") ]
      | _ -> ())
    (at j "stats")

(* each warm cell, booted from snapshots, equals the cold 1-domain cell
   in its fingerprint and integer counters *)
let warm_start j =
  match
    List.find_opt
      (fun (_, c) -> field "domains" c = J.Int 1)
      (at j "fleet.pinned.cells.*")
  with
  | Some ((_, J.Obj fields) as cold) ->
      List.iter
        (fun warm ->
          agree [ cold; warm ]
            (List.filter_map
               (function
                 | k, (J.Int _ | J.String _) when k <> "domains" -> Some k
                 | _ -> None)
               fields))
        (at j "fleet.warm.cells.*")
  | _ -> ()

let relations =
  [ ("perf-parity", perf_parity); ("caches-engaged", caches_engaged);
    ("same-fingerprint", same_fingerprint);
    ("armed-equals-disarmed", armed_equals_disarmed); ("resum", resum);
    ("dedup-ratio", dedup_ratio); ("migrate-rows", migrate_rows);
    ("ungoverned-panics", ungoverned_panics); ("finite", finite);
    ("layers-sum", layers_sum);
    ("spans-nest", spans_nest); ("per-app-sums", per_app_sums);
    ("warm-start", warm_start) ]

(* The golden snapshot decodes with today's decoder and re-encodes to
   the same bytes: a codec change that breaks either needs a version bump
   and a deliberately regenerated golden. *)
let fixed_point wire =
  match Snapshot.decode wire with
  | Error e ->
      fail "rejected (%d bytes on disk): %s" (String.length wire)
        (Snapshot.error_to_string e)
  | Ok snap ->
      let again = Snapshot.encode snap in
      if again <> wire then
        fail "re-encoding yields %d bytes vs %d on disk: the wire format \
              changed without a version bump"
          (String.length again) (String.length wire);
      if Snapshot.meta_find snap "kind" = None then fail "no kind meta entry";
      if snap.Snapshot.s_tables = [||] then fail "no EPT tables"

(* ---------------- one artifact ---------------- *)

let kinds =
  [ ("traceEvents", "timeline"); ("results", "results"); ("perf", "perf");
    ("fleet", "fleet"); ("telemetry", "telemetry"); ("migrate", "migrate");
    ("governed", "chaos") ]

let read path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error e -> Error e

(* The goldens of the checkout [dir] lies in: bench/pins under the
   nearest of [dir] and its ancestors that holds one. *)
let rec find_pins dir =
  let pins = Filename.concat (Filename.concat dir "bench") "pins" in
  if Sys.file_exists pins && Sys.is_directory pins then Some pins
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_pins parent

let named name f = List.map (fun s -> name ^ ": " ^ s) (collect f)

let check_json ~pins j =
  match List.find_opt (fun (key, _) -> J.member key j <> None) kinds with
  | None ->
      [ "unknown artifact: no FCSN magic and none of the top-level keys "
        ^ String.concat ", " (List.map fst kinds) ]
  | Some (_, kind) ->
      (* the chaos counter pins describe the full 100-plan matrix *)
      let goldens =
        if kind = "chaos" && field "plans" j = J.Int 100 then
          [ kind; "chaos-100" ]
        else [ kind ]
      in
      List.concat_map
        (fun g ->
          let file = Filename.concat pins (g ^ ".json") in
          match Result.bind (read file) J.of_string with
          | Ok golden -> diff golden j
          | Error e -> [ Printf.sprintf "golden %s: %s" file e ])
        goldens
      @ List.concat_map (fun (name, f) -> named name (fun () -> f j)) relations

(* Every failure of the artifact at [path], each prefixed with [path]. *)
let check ~pins path =
  List.map
    (fun s -> path ^ ": " ^ s)
    (match read path with
    | Error e -> [ "cannot open: " ^ e ]
    | Ok s when String.starts_with ~prefix:"FCSN" s ->
        named "fixed-point" (fun () -> fixed_point s)
    | Ok s -> (
        match J.of_string s with
        | Ok j -> check_json ~pins j
        | Error e ->
            [ Printf.sprintf "not valid JSON (%d bytes on disk): %s"
                (String.length s) e ]))
