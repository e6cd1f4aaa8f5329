(* The fleet host (lib/host): the sharding pool, the merge-on-export
   aggregation, and the load-bearing property that sharding is
   behavior-invisible — a fleet's merged fingerprint is identical for 1
   domain and N domains, and identical across two runs at the same seed.

   On OCaml 4.14 the whole file runs against the sequential fallback
   backend (lib/host/backend_seq.ml.in), which is exactly the
   compiler-matrix smoke the fleet layer needs: same API, same results,
   no Domains. *)

module Os = Fc_machine.Os
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Stats = Fc_core.Stats
module App = Fc_apps.App
module Profiles = Fc_benchkit.Profiles
module Frand = Fc_faults.Frand
module Frame_cache = Fc_mem.Frame_cache
module Pool = Fc_host.Pool
module HFleet = Fc_host.Fleet
module BFleet = Fc_benchkit.Fleet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let profiles () = Lazy.force Test_env.profiles

(* ---------------- the pool ---------------- *)

let test_pool_map_order () =
  let pool = Pool.create ~domains:4 () in
  check_int "domains recorded" 4 (Pool.domains pool);
  let r = Pool.map pool 100 (fun i -> i * i) in
  check_int "length" 100 (Array.length r);
  Array.iteri (fun i v -> check_int "slot in index order" (i * i) v) r;
  check_int "empty map" 0 (Array.length (Pool.map pool 0 (fun i -> i)))

let test_pool_fewer_jobs_than_workers () =
  let pool = Pool.create ~domains:8 () in
  let r = Pool.map pool 3 (fun i -> i + 10) in
  Alcotest.(check (list int)) "all jobs ran" [ 10; 11; 12 ] (Array.to_list r)

let test_pool_worker_exception_propagates () =
  let pool = Pool.create ~domains:2 () in
  match Pool.map pool 4 (fun i -> if i = 3 then failwith "boom" else i) with
  | _ -> Alcotest.fail "expected the worker exception to surface"
  | exception _ -> ()

let test_pool_invalid_domains () =
  match Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "domains:0 accepted"
  | exception Invalid_argument _ -> ()

(* The sequential-fallback smoke: on 4.14 [Pool.parallel] is false and
   everything above already ran sequentially; on 5.x this pins that the
   Domains backend was actually selected, so the compiler matrix covers
   both backends. *)
let test_backend_selection () =
  let expected = Sys.ocaml_version >= "5." in
  check_bool "backend matches compiler" expected Pool.parallel

(* ---------------- Frand.mix ---------------- *)

let test_mix_streams () =
  check_int "deterministic" (Frand.mix 42 7) (Frand.mix 42 7);
  check_bool "streams differ" true (Frand.mix 42 7 <> Frand.mix 42 8);
  check_bool "seeds differ" true (Frand.mix 42 7 <> Frand.mix 43 7);
  (* derived seeds feed Frand.create: equal streams from equal mixes *)
  let a = Frand.create (Frand.mix 1 3) and b = Frand.create (Frand.mix 1 3) in
  for _ = 1 to 16 do
    check_int "derived streams equal" (Frand.int a 1000) (Frand.int b 1000)
  done

(* ---------------- Stats.merge ---------------- *)

let app ~charged ~switches =
  {
    Stats.a_run_cycles = 5;
    a_run_slices = 1;
    a_cycles_charged = charged;
    a_view_switches = switches;
    a_recoveries = 0;
    a_recovered_bytes = 0;
    a_cow_breaks = 0;
  }

let stats ~cycles ~charged ~switches ~apps =
  {
    Stats.guest_cycles = cycles;
    rounds = 2;
    context_switches = 3;
    vcpus = 1;
    breakpoint_exits = 4;
    invalid_opcode_exits = 0;
    hypervisor_cycles = charged;
    view_switches = switches;
    switches_skipped = 0;
    switches_deferred = 0;
    recoveries = 0;
    recovered_bytes = 0;
    views_loaded = 1;
    view_pages = 7;
    shared_frames = 2;
    cow_breaks = 0;
    storms = 0;
    degradations = 0;
    renarrows = 0;
    quarantines = 0;
    broken_backtraces = 0;
    per_app = apps;
  }

let test_stats_merge () =
  let a =
    stats ~cycles:100 ~charged:10 ~switches:2
      ~apps:[ ("bash", app ~charged:10 ~switches:2) ]
  in
  let b =
    stats ~cycles:50 ~charged:6 ~switches:3
      ~apps:
        [ ("bash", app ~charged:2 ~switches:1); ("top", app ~charged:4 ~switches:2) ]
  in
  let m = Stats.merge [ a; b ] in
  check_int "guest_cycles summed" 150 m.Stats.guest_cycles;
  check_int "hypervisor_cycles summed" 16 m.Stats.hypervisor_cycles;
  check_int "view_pages summed" 14 m.Stats.view_pages;
  check_int "two apps" 2 (List.length m.Stats.per_app);
  let bash = List.assoc "bash" m.Stats.per_app in
  check_int "bash charged merged" 12 bash.Stats.a_cycles_charged;
  check_int "bash switches merged" 3 bash.Stats.a_view_switches;
  check_bool "attribution preserved by merge" true (Stats.attribution_ok m);
  (* merge is order-insensitive *)
  Alcotest.(check bool)
    "commutative" true
    (Stats.merge [ b; a ] = m);
  check_int "merge [] is zero" 0 (Stats.merge []).Stats.guest_cycles

(* ---------------- fleet determinism ---------------- *)

(* Small fleets keep the property suite fast; the bench arm's pinned
   40-guest cell covers the same property at scale in CI. *)
let fleet_guests = 8
let fleet_seed = 5

let cell domains =
  (BFleet.run_cell (profiles ()) ~seed:fleet_seed ~domains ~guests:fleet_guests)
    .BFleet.c_report

let test_fingerprint_across_domains () =
  let base = cell 1 in
  check_int "all guests ran" fleet_guests base.HFleet.r_guests;
  List.iter
    (fun domains ->
      let r = cell domains in
      check_string
        (Printf.sprintf "fingerprint identical at %d domains" domains)
        base.HFleet.r_fingerprint r.HFleet.r_fingerprint;
      check_int "instructions identical" base.HFleet.r_instructions
        r.HFleet.r_instructions;
      check_int "unique frames identical" base.HFleet.r_unique_frames
        r.HFleet.r_unique_frames;
      check_int "total frames identical" base.HFleet.r_total_frames
        r.HFleet.r_total_frames)
    [ 2; 4 ]

let test_fingerprint_across_runs () =
  let a = cell 2 and b = cell 2 in
  check_string "same seed, same fleet" a.HFleet.r_fingerprint
    b.HFleet.r_fingerprint;
  let c =
    (BFleet.run_cell (profiles ()) ~seed:(fleet_seed + 1) ~domains:2
       ~guests:fleet_guests)
      .BFleet.c_report
  in
  check_bool "different seed, different fleet" true
    (a.HFleet.r_fingerprint <> c.HFleet.r_fingerprint)

let test_merged_attribution () =
  let r = cell 2 in
  check_bool "merged per-app sums equal merged globals" true
    r.HFleet.r_per_app_ok;
  (* the merged stats really are the sum of the guests' *)
  let by_hand =
    Stats.merge
      (List.map
         (fun g -> g.HFleet.g_stats)
         (Array.to_list r.HFleet.r_guests_detail))
  in
  check_int "merged view_switches" by_hand.Stats.view_switches
    r.HFleet.r_merged.Stats.view_switches

(* Two domains' guests share one image's body memo: a second run of the
   same cell finds every body the first published, and neither the
   sharing nor the cold/warm difference moves the fingerprint away from
   a 1-domain run on a fresh image.  Every cell's guests after the first
   on each worker boot into the storage of the one before
   (Os.reusing), so the same cell run with no store at all must agree
   too. *)
let test_shared_image_memo () =
  let fresh () =
    Profiles.with_image (profiles ()) (Fc_kernel.Image.build_exn ())
  in
  let run p =
    (BFleet.run_cell p ~seed:fleet_seed ~domains:2 ~guests:fleet_guests)
      .BFleet.c_report
  in
  let base =
    (BFleet.run_cell (fresh ()) ~seed:fleet_seed ~domains:1
       ~guests:fleet_guests)
      .BFleet.c_report
  in
  let shared = fresh () in
  let decoded () = Fc_kernel.Image.decoded_blocks (Profiles.image shared) in
  let first = run shared in
  let published = decoded () in
  let second = run shared in
  check_bool "the first run published bodies" true (published > 0);
  check_int "the second run published none" published (decoded ());
  check_string "first run = fresh 1-domain run" base.HFleet.r_fingerprint
    first.HFleet.r_fingerprint;
  check_string "second run = fresh 1-domain run" base.HFleet.r_fingerprint
    second.HFleet.r_fingerprint;
  let storeless =
    HFleet.merge ~domains:1
      (Array.init fleet_guests (BFleet.run_guest (fresh ()) ~seed:fleet_seed))
  in
  check_string "no store = fresh 1-domain run" base.HFleet.r_fingerprint
    storeless.HFleet.r_fingerprint

(* ---------------- cross-guest frame dedup ---------------- *)

(* Two byte-identical guests (same app, same script, no faults): every
   resident view frame of one has a twin in the other, so the fleet-wide
   unique count is exactly half the total and the dedup ratio is 1/2. *)
let identical_guest profiles index =
  let app = App.find_exn "top" in
  let os = Os.create ~config:(App.os_config app) (Profiles.image profiles) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable hyp in
  let (_ : int) = Facechange.load_view fc (Profiles.config_of profiles "top") in
  let (_ : Fc_machine.Process.t) = Os.spawn os ~name:"top" (app.App.script 2) in
  let outcome =
    match Os.run ~max_rounds:20_000 os with
    | () -> "ok"
    | exception Os.Guest_panic m -> "panic: " ^ m
  in
  HFleet.guest ~index ~app:"top" ~outcome ~stats:(Stats.capture fc)
    ~instructions:(Os.instructions os) ~cycles:(Os.cycles os)
    ~frame_keys:(Frame_cache.resident_keys (Hyp.frame_cache hyp))
    ()

let test_identical_guests_dedup () =
  let r = HFleet.run ~domains:2 ~guests:2 (identical_guest (profiles ())) in
  let g0 = r.HFleet.r_guests_detail.(0) and g1 = r.HFleet.r_guests_detail.(1) in
  check_string "byte-identical guests digest alike" g0.HFleet.g_digest
    g1.HFleet.g_digest;
  check_bool "views materialized frames" true (r.HFleet.r_total_frames > 0);
  check_int "every frame has its cross-guest twin"
    (2 * r.HFleet.r_unique_frames)
    r.HFleet.r_total_frames;
  Alcotest.(check (float 1e-9)) "dedup ratio is 1/2" 0.5 r.HFleet.r_dedup_ratio

let suites =
  [
    ( "fleet",
      [
        Alcotest.test_case "pool: map in index order" `Quick
          test_pool_map_order;
        Alcotest.test_case "pool: fewer jobs than workers" `Quick
          test_pool_fewer_jobs_than_workers;
        Alcotest.test_case "pool: worker exception propagates" `Quick
          test_pool_worker_exception_propagates;
        Alcotest.test_case "pool: invalid domains rejected" `Quick
          test_pool_invalid_domains;
        Alcotest.test_case "backend matches compiler (seq fallback on 4.14)"
          `Quick test_backend_selection;
        Alcotest.test_case "Frand.mix derives stable streams" `Quick
          test_mix_streams;
        Alcotest.test_case "Stats.merge sums fields and apps" `Quick
          test_stats_merge;
        Alcotest.test_case "fingerprint identical across 1/2/4 domains" `Slow
          test_fingerprint_across_domains;
        Alcotest.test_case "fingerprint identical across runs, seed-sensitive"
          `Slow test_fingerprint_across_runs;
        Alcotest.test_case "merged per-app attribution equals globals" `Slow
          test_merged_attribution;
        Alcotest.test_case "two domains share one image's decoded blocks"
          `Slow test_shared_image_memo;
        Alcotest.test_case "byte-identical guests dedup 2:1" `Slow
          test_identical_guests_dedup;
      ] );
  ]
