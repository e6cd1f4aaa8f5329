module Os = Fc_machine.Os
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Stats = Fc_core.Stats
module App = Fc_apps.App
module Fault = Fc_faults.Fault
module Frand = Fc_faults.Frand
module Injector = Fc_faults.Injector
module Frame_cache = Fc_mem.Frame_cache
module HFleet = Fc_host.Fleet
module Pool = Fc_host.Pool
module Snapshot = Fc_snapshot.Snapshot
module J = Fc_obs.Jsonx

type cell = { c_report : HFleet.report; c_requested_domains : int }

type t = {
  f_seed : int;
  f_parallel : bool;
  f_pinned_guests : int;
  f_pinned : cell list;
  f_warm : cell list;
  f_sweep : cell list;
}

(* Same variety criteria as the chaos pool: different syscall mixes and
   interrupt environments, none of the heaviest scripts — a fleet runs
   hundreds of these. *)
let app_pool =
  [ "top"; "apache"; "gvim"; "tcpdump"; "bash"; "gzip"; "vsftpd"; "eog" ]

(* One guest VM, self-contained: everything below derives from the
   per-guest seed, so the result depends only on [index] — never on the
   domain that ran it.  Chaos-style (governed fault plan, enforced view,
   full-view companion) on the default (fast) engine.

   [?telemetry] arms the probe (ticker + sampler) at that period; the
   armed guest must produce the same digest as a disarmed one — the
   probe is behavior-invisible — which bench/check.exe gates on
   BENCH_telemetry.json. *)
let run_guest ?telemetry ?(warm_start = false) profiles ~seed index =
  let gseed = Frand.mix seed index in
  let r = Frand.create gseed in
  let name = Frand.pick r app_pool in
  let n = 3 + Frand.int r 5 in
  let plan = Fault.gen ~seed:gseed ~rounds:100 ~n in
  let app = App.find_exn name in
  let os =
    Os.create ~config:(App.os_config app) (Profiles.image profiles)
  in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable ~governor:Chaos.chaos_policy hyp in
  let (_ : int) = Facechange.load_view fc (Profiles.config_of profiles name) in
  let (_ : Fc_machine.Process.t) = Os.spawn os ~name (app.App.script 3) in
  let companion = App.find_exn "top" in
  let (_ : Fc_machine.Process.t) =
    Os.spawn os ~name:"fleet-companion" (companion.App.script 2)
  in
  let inj = Injector.arm ~os ~hyp ~fc plan in
  (* Warm start: freeze the fully-armed guest at its boot round, push it
     through the wire format, and run the restored machine instead.  The
     cell's digests must equal a cold boot's — the gate holds it there. *)
  let os, hyp, fc, inj =
    if not warm_start then (os, hyp, fc, inj)
    else begin
      let cursor = Injector.cursor inj ~position:(Os.round os) in
      let snap =
        Snapshot.capture
          ~meta:[ ("kind", "warm-boot"); ("app", name) ]
          ~cursor ~fc ~hyp os
      in
      Injector.disarm inj;
      match Snapshot.decode (Snapshot.encode snap) with
      | Error e ->
          failwith
            (Printf.sprintf "guest %d warm boot: %s" index
               (Snapshot.error_to_string e))
      | Ok s -> (
          let rs = Snapshot.restore ~image:(Profiles.image profiles) s in
          match (rs.Snapshot.r_hyp, rs.Snapshot.r_fc, rs.Snapshot.r_inj) with
          | Some hyp, Some fc, Some inj -> (rs.Snapshot.r_os, hyp, fc, inj)
          | _ ->
              failwith
                (Printf.sprintf "guest %d warm boot: layer missing" index))
    end
  in
  let probe =
    Option.map (fun period -> Probe.arm ~period ~os ~hyp ~fc ()) telemetry
  in
  let outcome =
    match Os.run ~max_rounds:12_000 os with
    | () -> "ok"
    | exception Os.Guest_panic "scheduler round budget exhausted" -> "wedged"
    | exception Os.Guest_panic m -> "panic: " ^ m
  in
  Injector.disarm inj;
  let telemetry =
    Option.map
      (fun p ->
        let r = Probe.finish p in
        (* the sum-equals-total invariant holds per guest or the whole
           armed cell is worthless — fail loudly, not in the merge *)
        List.iter
          (fun e -> failwith (Printf.sprintf "guest %d telemetry: %s" index e))
          r.Probe.r_resum_errors;
        {
          HFleet.t_series = r.Probe.r_series;
          t_folds = r.Probe.r_folds;
          t_samples = r.Probe.r_samples;
        })
      probe
  in
  HFleet.guest ?telemetry ~index ~app:name ~outcome ~stats:(Stats.capture fc)
    ~instructions:(Os.instructions os) ~cycles:(Os.cycles os)
    ~frame_keys:(Frame_cache.resident_keys (Hyp.frame_cache hyp))
    ()

let run_cell ?telemetry ?warm_start profiles ~seed ~domains ~guests =
  {
    c_report =
      HFleet.run ~domains ~guests
        (run_guest ?telemetry ?warm_start profiles ~seed);
    c_requested_domains = domains;
  }

(* The pinned cell is fixed regardless of --fast: the gate's exact
   counters must not depend on how much sweeping we did around them. *)
let pinned_guests = 40
let pinned_domains = [ 1; 2; 4 ]

let sweep_grid ~fast =
  if fast then ([ 1; 2 ], [ 10; 30 ]) else ([ 1; 2; 4; 8 ], [ 10; 50; 150; 500 ])

(* The warm cell re-runs the pinned fleet booted from wire-format
   snapshots; smaller domain set — the digest parity it proves is
   domain-count independent already. *)
let warm_domains = [ 1; 2 ]

let run ?(fast = false) ?(seed = 7) profiles =
  let pinned =
    List.map
      (fun domains ->
        run_cell profiles ~seed ~domains ~guests:pinned_guests)
      pinned_domains
  in
  let warm =
    List.map
      (fun domains ->
        run_cell ~warm_start:true profiles ~seed ~domains
          ~guests:pinned_guests)
      warm_domains
  in
  let domain_counts, guest_counts = sweep_grid ~fast in
  let sweep =
    List.concat_map
      (fun guests ->
        List.map
          (fun domains -> run_cell profiles ~seed ~domains ~guests)
          domain_counts)
      guest_counts
  in
  {
    f_seed = seed;
    f_parallel = Pool.parallel;
    f_pinned_guests = pinned_guests;
    f_pinned = pinned;
    f_warm = warm;
    f_sweep = sweep;
  }

let cell_to_json c =
  let r = c.c_report in
  J.Obj
    [
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
      ("dedup_ratio", J.Float r.HFleet.r_dedup_ratio);
      ("panics", J.Int r.HFleet.r_panics);
      ("wedged", J.Int r.HFleet.r_wedged);
      ("per_app_ok", J.Bool r.HFleet.r_per_app_ok);
      ( "outcomes",
        J.Obj
          (List.map (fun (o, n) -> (o, J.Int n)) r.HFleet.r_outcomes) );
    ]

let to_json t =
  J.Obj
    [
      ("seed", J.Int t.f_seed);
      ("parallel_backend", J.Bool t.f_parallel);
      ( "pinned",
        J.Obj
          [
            ("guests", J.Int t.f_pinned_guests);
            ("cells", J.List (List.map cell_to_json t.f_pinned));
          ] );
      ( "warm",
        J.Obj
          [
            ("guests", J.Int t.f_pinned_guests);
            ("cells", J.List (List.map cell_to_json t.f_warm));
          ] );
      ("sweep", J.List (List.map cell_to_json t.f_sweep));
    ]

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "Fleet: seeded guest fleets sharded across domains (backend: %s)\n"
       (if t.f_parallel then "OCaml 5 Domains" else "sequential fallback"));
  let line prefix c =
    let r = c.c_report in
    Buffer.add_string buf
      (Printf.sprintf
         "  %s d=%-2d guests=%-4d  %10d instr  dedup %4.1f%% \
          (%d/%d frames)  sw=%-5d rec=%-4d ok=%d wedged=%d panics=%d  fp=%s\n"
         prefix r.HFleet.r_domains r.HFleet.r_guests r.HFleet.r_instructions
         (100. *. r.HFleet.r_dedup_ratio)
         r.HFleet.r_unique_frames r.HFleet.r_total_frames
         r.HFleet.r_merged.Stats.view_switches
         r.HFleet.r_merged.Stats.recoveries
         (r.HFleet.r_guests - r.HFleet.r_panics - r.HFleet.r_wedged)
         r.HFleet.r_wedged r.HFleet.r_panics
         (String.sub r.HFleet.r_fingerprint 0 12))
  in
  Buffer.add_string buf
    (Printf.sprintf "  pinned cell (%d guests):\n" t.f_pinned_guests);
  List.iter (line "pin  ") t.f_pinned;
  let fps =
    List.sort_uniq String.compare
      (List.map (fun c -> c.c_report.HFleet.r_fingerprint) t.f_pinned)
  in
  Buffer.add_string buf
    (Printf.sprintf "  pinned fingerprints across domain counts: %s\n"
       (if List.length fps <= 1 then "IDENTICAL" else "DIVERGED"));
  Buffer.add_string buf "  warm-start cell (booted from snapshots):\n";
  List.iter (line "warm ") t.f_warm;
  let warm_fps =
    List.sort_uniq String.compare
      (List.map (fun c -> c.c_report.HFleet.r_fingerprint) t.f_warm)
  in
  Buffer.add_string buf
    (Printf.sprintf "  warm-start fingerprints vs cold boot: %s\n"
       (if warm_fps = fps || warm_fps = [] then "IDENTICAL" else "DIVERGED"));
  Buffer.add_string buf "  sweep:\n";
  List.iter (line "sweep") t.f_sweep;
  Buffer.contents buf
