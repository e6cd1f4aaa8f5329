(* Compares two sets of benchmark results — a parent and a change, or two
   sets of runs of one commit — workload by workload.

     compare.exe A_DIR B_DIR [--spec BENCHMARK.json]

   Each directory is searched recursively for the result files main.exe
   writes (benchmark/out/seed<N>[-trace]/<workload>.json by default).  For
   every workload and end-to-end metric of BENCHMARK.json it prints each
   side's median and quartiles over the untraced runs, the metric's
   bound, and a verdict for B against A:

     better      every B run beats every A run, or B wins at least nine
                 tenths of the runs paired by seed and the medians differ
                 by more than A's quartile spread
     worse       otherwise, when B's median is worse than A's by more
                 than the bound
     unresolved  otherwise, when either side's quartile spread (as a share
                 of its median) is wider than the bound
     unchanged   anything else

   Runs of the same workload and seed must carry identical digests and
   deterministic counters, within a set and across the two.  Exits 1 on a
   worse verdict or on any such mismatch. *)

module J = Fc_obs.Jsonx

type run = {
  file : string;
  workload : string;
  seed : int;
  trace : bool;
  digest : string;
  counters : (string * J.t) list;
  metrics : (string * float) list;
}

let rec json_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then json_files path
         else if Filename.check_suffix name ".json" then [ path ]
         else [])

(* A result file, or [None] for other JSON (Chrome traces). *)
let parse file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match J.of_string text with
  | Error e -> failwith (file ^ ": " ^ e)
  | Ok j -> (
      let field name conv = Option.bind (J.member name j) conv in
      match
        ( field "workload" J.to_str, field "seed" J.to_int, field "trace" J.to_bool,
          field "digest" J.to_str, J.member "counters" j, J.member "metrics" j )
      with
      | Some workload, Some seed, Some trace, Some digest, Some (J.Obj counters),
        Some (J.Obj metrics) ->
          Some
            {
              file; workload; seed; trace; digest; counters;
              metrics =
                List.filter_map
                  (fun (name, m) ->
                    Option.map (fun v -> (name, v)) (Option.bind (J.member "value" m) J.to_float))
                  metrics;
            }
      | _ -> None)

let load dir = List.filter_map parse (json_files dir)

(* Digest and counter agreement between every two runs of one workload
   and seed. *)
let mismatches runs =
  let key r = (r.workload, r.seed) in
  let groups = List.sort_uniq compare (List.map key runs) in
  List.concat_map
    (fun k ->
      match List.filter (fun r -> key r = k) runs with
      | [] -> []
      | first :: rest ->
          List.filter_map
            (fun r ->
              if r.digest = first.digest && r.counters = first.counters then None
              else
                let diverged =
                  List.filter_map
                    (fun (name, v) ->
                      if List.assoc_opt name first.counters = Some v then None else Some name)
                    r.counters
                in
                Some
                  (Printf.sprintf "%s seed %d: %s and %s disagree (digest %s vs %s; counters: %s)"
                     (fst k) (snd k) first.file r.file first.digest r.digest
                     (if diverged = [] then "none" else String.concat ", " diverged)))
            rest)
    groups

let verdict ~lower_is_better ~bound a b =
  (* [beats x y]: value y is better than value x *)
  let beats x y = if lower_is_better then y < x else y > x in
  let a_q1, a_med, a_q3 = Stat.quartiles (List.map snd a) in
  let b_q1, b_med, b_q3 = Stat.quartiles (List.map snd b) in
  let pairs =
    List.filter_map (fun (seed, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt seed b)) a
  in
  let wins = List.length (List.filter (fun (x, y) -> beats x y) pairs) in
  let every_run_better = List.for_all (fun (_, y) -> List.for_all (fun (_, x) -> beats x y) a) b in
  let spread q1 med q3 = (q3 -. q1) /. Float.abs med in
  if
    every_run_better
    || pairs <> []
       && 10 * wins >= 9 * List.length pairs
       && beats a_med b_med
       && Float.abs (b_med -. a_med) > a_q3 -. a_q1
  then "better"
  else if beats b_med a_med && Float.abs (b_med -. a_med) > bound *. Float.abs a_med then "worse"
  else if spread a_q1 a_med a_q3 > bound || spread b_q1 b_med b_q3 > bound then "unresolved"
  else "unchanged"

let spec_end_to_end path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok spec -> (
      match J.member "end_to_end" spec with
      | Some (J.List ms) ->
          List.map
            (fun m ->
              match
                ( Option.bind (J.member "name" m) J.to_str,
                  Option.bind (J.member "better" m) J.to_str,
                  Option.bind (J.member "bound" m) J.to_float )
              with
              | Some name, Some better, Some bound -> (name, better = "lower", bound)
              | _ -> failwith (path ^ ": malformed end_to_end entry"))
            ms
      | _ -> failwith (path ^ ": no end_to_end list"))

let () =
  let spec = ref "BENCHMARK.json" and dirs = ref [] in
  Arg.parse
    [ ("--spec", Arg.Set_string spec, "PATH BENCHMARK.json (default ./BENCHMARK.json)") ]
    (fun d -> dirs := !dirs @ [ d ])
    "compare.exe A_DIR B_DIR [--spec BENCHMARK.json]";
  let a_dir, b_dir =
    match !dirs with
    | [ a; b ] -> (a, b)
    | _ ->
        prerr_endline "compare.exe: expected two result directories";
        exit 2
  in
  let a = load a_dir and b = load b_dir in
  let metrics = spec_end_to_end !spec in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b)) in
  let worse = ref 0 in
  let summary runs =
    let q1, med, q3 = Stat.quartiles (List.map snd runs) in
    Printf.sprintf "%10.4g [%.4g, %.4g] n=%-2d" med q1 q3 (List.length runs)
  in
  Printf.printf "%-9s %-12s %-34s %-34s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "bound" "verdict";
  List.iter
    (fun w ->
      let values side name =
        List.filter_map
          (fun r ->
            if r.workload = w && not r.trace then
              Option.map (fun v -> (r.seed, v)) (List.assoc_opt name r.metrics)
            else None)
          side
      in
      List.iter
        (fun (name, lower_is_better, bound) ->
          match (values a name, values b name) with
          | [], _ | _, [] -> Printf.printf "%-9s %-12s missing on one side\n" w name
          | va, vb ->
              let v = verdict ~lower_is_better ~bound va vb in
              if v = "worse" then incr worse;
              Printf.printf "%-9s %-12s %-34s %-34s %6.2f  %s\n" w name (summary va) (summary vb)
                bound v)
        metrics)
    workloads;
  let bad = mismatches (a @ b) in
  List.iter (fun m -> print_endline ("mismatch: " ^ m)) bad;
  if !worse > 0 || bad <> [] then exit 1
