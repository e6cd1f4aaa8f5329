(* CI gate over the bench artifacts:

     bench/check.exe [ARTIFACT ...]

   Each artifact (any BENCH_*.json the harness writes, or a .fcsnap) is
   compared with its golden under bench/pins/ and held to the named
   relations in bench/checker.ml; its kind is read from its content.  With
   no argument it checks BENCH_results.json and BENCH_timeline.json.  Run
   it from the repository root.  Failures from every artifact are
   printed, then the process exits 1 once. *)

let () =
  let paths =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ "BENCH_results.json"; "BENCH_timeline.json" ]
    | paths -> paths
  in
  match List.concat_map (Fc_checker.Checker.check ~pins:"bench/pins") paths with
  | [] -> Printf.printf "check: %s ok\n" (String.concat " + " paths)
  | fs ->
      List.iter (Printf.eprintf "check: %s\n") fs;
      Printf.eprintf "check: FAILED (%d problem(s) across %d artifact(s))\n"
        (List.length fs) (List.length paths);
      exit 1
