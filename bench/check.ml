(* CI gate over the bench artifacts:

     bench/check.exe [ARTIFACT ...]

   Each artifact (any BENCH_*.json the harness writes, or a .fcsnap) is
   compared with its golden under bench/pins/ and held to the named
   relations in bench/checker.ml; its kind is read from its content.  With
   no argument it checks BENCH_results.json and BENCH_timeline.json.
   Artifact paths are relative to the working directory, which may be
   any directory of the checkout: the goldens are found above it.
   Failures from every artifact are printed, then the process exits 1
   once. *)

let () =
  let paths =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ "BENCH_results.json"; "BENCH_timeline.json" ]
    | paths -> paths
  in
  let pins =
    match Fc_checker.Checker.find_pins (Sys.getcwd ()) with
    | Some pins -> pins
    | None ->
        Printf.eprintf "check: no bench/pins in %s or any directory above it\n"
          (Sys.getcwd ());
        exit 2
  in
  match List.concat_map (Fc_checker.Checker.check ~pins) paths with
  | [] -> Printf.printf "check: %s ok\n" (String.concat " + " paths)
  | fs ->
      List.iter (Printf.eprintf "check: %s\n") fs;
      Printf.eprintf "check: FAILED (%d problem(s) across %d artifact(s))\n"
        (List.length fs) (List.length paths);
      exit 1
