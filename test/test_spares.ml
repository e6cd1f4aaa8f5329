(* Spare storage across a worker's guests (Os.spares and Os.reusing,
   which Fc_host.Fleet.run wraps around every job):

   - reuse is invisible: a guest booted into the frames and lines a
     finished guest left ends with every registry counter, its Stats,
     instruction and cycle counts and its whole frozen state equal to a
     guest of the same seed booted with no store, cold or thawed;
   - a reclaimed machine cannot be used: one leaked out of its fleet job
     refuses to run, spawn or be captured, and its memory is dead;
   - a store stays bounded: it never holds more frame buffers or block
     arrays than the most one job returned to it;
   - a restored guest hashes no page a cold guest would not: the frozen
     pool carries each frame's digest, in memory and through the wire
     format. *)

module Os = Fc_machine.Os
module Process = Fc_machine.Process
module Phys = Fc_mem.Phys_mem
module Layout = Fc_kernel.Layout
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Stats = Fc_core.Stats
module App = Fc_apps.App
module Profiles = Fc_benchkit.Profiles
module Chaos = Fc_benchkit.Chaos
module Fault = Fc_faults.Fault
module Frand = Fc_faults.Frand
module Injector = Fc_faults.Injector
module Snapshot = Fc_snapshot.Snapshot
module Metrics = Fc_obs.Metrics
module Frame_cache = Fc_mem.Frame_cache
module HFleet = Fc_host.Fleet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let profiles () = Lazy.force Test_env.profiles
let image () = Profiles.image (profiles ())

type guest = {
  os : Os.t;
  hyp : Hyp.t;
  fc : Facechange.t;
  inj : Injector.t;
  app : string;
}

(* A fleet guest, as Fc_benchkit.Fleet.run_guest boots it: one profiled
   app under its enforced view, a full-view companion and a governed
   fault plan, all drawn from [seed]. *)
let boot ~seed =
  let r = Frand.create seed in
  let app = Frand.pick r [ "top"; "apache"; "gvim"; "tcpdump"; "bash"; "gzip"; "vsftpd"; "eog" ] in
  let plan = Fault.gen ~seed ~rounds:100 ~n:(3 + Frand.int r 5) in
  let a = App.find_exn app in
  let os = Os.create ~config:(App.os_config a) (image ()) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable ~governor:Chaos.chaos_policy hyp in
  let (_ : int) = Facechange.load_view fc (Profiles.config_of (profiles ()) app) in
  let (_ : Process.t) = Os.spawn os ~name:app (a.App.script 3) in
  let (_ : Process.t) =
    Os.spawn os ~name:"fleet-companion" ((App.find_exn "top").App.script 2)
  in
  { os; hyp; fc; inj = Injector.arm ~os ~hyp ~fc plan; app }

let capture g =
  Snapshot.capture ~cursor:(Injector.cursor g.inj ~position:(Os.round g.os)) ~fc:g.fc
    ~hyp:g.hyp g.os

let restore snap =
  let r = Snapshot.restore ~image:(image ()) snap in
  match (r.Snapshot.r_hyp, r.Snapshot.r_fc, r.Snapshot.r_inj) with
  | Some hyp, Some fc, Some inj -> { os = r.Snapshot.r_os; hyp; fc; inj; app = "" }
  | _ -> Alcotest.fail "restore: a layer is missing"

let through_wire snap =
  match Snapshot.decode (Snapshot.encode snap) with
  | Ok s -> s
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)

(* Warm start, as the fleet's warm cells do it: the booted guest goes
   through the wire format and the thawed machine runs instead. *)
let warm g =
  let snap = capture g in
  Injector.disarm g.inj;
  restore (through_wire snap)

let run g =
  match Os.run ~max_rounds:12_000 g.os with
  | () -> ()
  | exception Os.Guest_panic m -> Alcotest.failf "guest panicked: %s" m

(* Everything a guest shows after its run. *)
type seen = {
  counters : Metrics.sample list;  (* every registry entry, sb.* and tlb.* too *)
  stats : Stats.t;
  instructions : int;
  cycles : int;
  frozen : Os.frozen;
  wire : string;  (* every layer's snapshot, counters included *)
}

let observe g =
  let snap = capture g in
  {
    counters = Metrics.snapshot (Fc_obs.Obs.metrics (Os.obs g.os));
    stats = Stats.capture g.fc;
    instructions = Os.instructions g.os;
    cycles = Os.cycles g.os;
    frozen = snap.Snapshot.s_os;
    wire = Snapshot.encode snap;
  }

let guest ~warm_start ~seed =
  let g = boot ~seed in
  let g = if warm_start then warm g else g in
  run g;
  observe g

let check_same what (a : seen) (b : seen) =
  check_bool (what ^ ": registry") true (a.counters = b.counters);
  check_bool (what ^ ": stats") true (a.stats = b.stats);
  check_int (what ^ ": instructions") a.instructions b.instructions;
  check_int (what ^ ": cycles") a.cycles b.cycles;
  check_bool (what ^ ": frozen machine") true (a.frozen = b.frozen);
  check_bool (what ^ ": snapshot bytes") true (String.equal a.wire b.wire)

let seed_a = Frand.mix 21 0
let seed_b = Frand.mix 21 1

(* One domain, one store, three jobs: guest A, then guest B on what A
   left, then guest B again on what the first B left.  Both B's must be
   the B a storeless boot gives. *)
let reuse_invisible ~warm_start () =
  let store = Os.spares () in
  let (_ : seen) = Os.reusing store (fun () -> guest ~warm_start ~seed:seed_a) in
  check_bool "the first job left frames" true (Os.spare_frames store > 0);
  check_bool "the first job left lines" true (Os.spare_lines store > 0);
  let after_a = Os.reusing store (fun () -> guest ~warm_start ~seed:seed_b) in
  let after_b = Os.reusing store (fun () -> guest ~warm_start ~seed:seed_b) in
  let fresh = guest ~warm_start ~seed:seed_b in
  check_same "booted on another guest's storage" fresh after_a;
  check_same "booted on its twin's storage" fresh after_b

(* ---------------- reclaimed machines ---------------- *)

let fleet_job ?leak ~seed i =
  let g = boot ~seed:(Frand.mix seed i) in
  Option.iter (fun r -> r := Some g) leak;
  run g;
  HFleet.guest ~index:i ~app:g.app ~outcome:"ok" ~stats:(Stats.capture g.fc)
    ~instructions:(Os.instructions g.os) ~cycles:(Os.cycles g.os)
    ~frame_keys:(Frame_cache.resident_keys (Hyp.frame_cache g.hyp))
    ()

let refused what f =
  match f () with
  | _ -> Alcotest.failf "%s worked on a reclaimed machine" what
  | exception Invalid_argument _ -> ()

let leaked_machine_refused () =
  let leaked = ref None in
  let (_ : HFleet.report) =
    HFleet.run ~domains:2 ~guests:4 (fun i ->
        fleet_job ?leak:(if i = 3 then Some leaked else None) ~seed:5 i)
  in
  let g = Option.get !leaked in
  refused "Os.run" (fun () -> Os.run g.os);
  refused "Os.spawn" (fun () -> ignore (Os.spawn g.os ~name:"late" [] : Process.t));
  refused "Snapshot.capture" (fun () -> ignore (capture g : Snapshot.t));
  refused "a guest-memory read" (fun () -> ignore (Os.read_guest_byte g.os Layout.data_base));
  check_int "no lines left" 0 (Os.decode_cache_frames g.os);
  check_int "no live frames left" 0 (Phys.live_frames (Os.phys g.os))

(* A job's machines stay reclaimed when it raises, and the scope it
   left is current again: a machine booted after it takes nothing. *)
let raising_job_reclaims () =
  let store = Os.spares () in
  let leaked = ref None in
  (match
     Os.reusing store (fun () ->
         leaked := Some (boot ~seed:seed_a);
         failwith "job failed")
   with
  | () -> Alcotest.fail "the job's exception was lost"
  | exception Failure _ -> ());
  refused "Os.run" (fun () -> Os.run (Option.get !leaked).os);
  let held = Os.spare_frames store in
  check_bool "the raising job returned its frames" true (held > 0);
  let (_ : guest) = boot ~seed:seed_b in
  check_int "outside the job, boot takes nothing" held (Os.spare_frames store)

(* ---------------- bounded stores ---------------- *)

let store_bounded () =
  let store = Os.spares () in
  let most = ref (0, 0) in
  List.iteri
    (fun k (warm_start, seed) ->
      let returned =
        Os.reusing store (fun () ->
            let cold = boot ~seed in
            let machines, g =
              if warm_start then
                let g = warm cold in
                ([ cold.os; g.os ], g)
              else ([ cold.os ], cold)
            in
            run g;
            List.fold_left
              (fun (f, l) os ->
                (f + Phys.live_frames (Os.phys os), l + Os.decode_cache_frames os))
              (0, 0) machines)
      in
      if k = 0 then begin
        check_int "the first job's frames, all of them" (fst returned)
          (Os.spare_frames store);
        check_int "the first job's lines, all of them" (snd returned)
          (Os.spare_lines store)
      end;
      most := (max (fst !most) (fst returned), max (snd !most) (snd returned));
      check_bool "frames: at most the largest job's" true
        (Os.spare_frames store <= fst !most);
      check_bool "lines: at most the largest job's" true
        (Os.spare_lines store <= snd !most))
    [
      (false, seed_a); (true, seed_b); (false, seed_b); (false, Frand.mix 21 2);
      (true, Frand.mix 21 3); (false, seed_a);
    ]

(* ---------------- digests across a restore ---------------- *)

let hashes g f =
  let phys = Os.phys g.os in
  let before = Phys.digests_computed phys in
  f ();
  Phys.digests_computed phys - before

let restored_hash_no_more () =
  List.iter
    (fun seed ->
      let cold = boot ~seed in
      let snap = capture cold in
      let in_memory = restore snap and decoded = restore (through_wire snap) in
      let cold_n = hashes cold (fun () -> run cold) in
      let mem_n = hashes in_memory (fun () -> run in_memory) in
      let wire_n = hashes decoded (fun () -> run decoded) in
      check_bool
        (Printf.sprintf "in-memory restore hashes %d <= cold %d" mem_n cold_n)
        true (mem_n <= cold_n);
      check_bool
        (Printf.sprintf "wire restore hashes %d <= cold %d" wire_n cold_n)
        true (wire_n <= cold_n);
      check_int "same instructions" (Os.instructions cold.os) (Os.instructions decoded.os))
    [ seed_a; seed_b; Frand.mix 21 2 ]

let suites =
  [
    ( "spares",
      [
        Alcotest.test_case "reuse is invisible: cold boots" `Quick
          (reuse_invisible ~warm_start:false);
        Alcotest.test_case "reuse is invisible: warm starts" `Quick
          (reuse_invisible ~warm_start:true);
        Alcotest.test_case "a leaked fleet machine is refused" `Quick
          leaked_machine_refused;
        Alcotest.test_case "a raising job still reclaims" `Quick
          raising_job_reclaims;
        Alcotest.test_case "a store holds at most the largest job's" `Quick
          store_bounded;
        Alcotest.test_case "restored guests hash no more than cold" `Quick
          restored_hash_no_more;
      ] );
  ]
