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
module Migrate = Fc_host.Migrate
module J = Fc_obs.Jsonx

type row = {
  w_seed : int;
  w_app : string;
  w_precopy_rounds : int;
  w_migrated : bool;  (** false when the guest died before the handoff *)
  w_pages_total : int;
  w_pages_copied : int;
  w_final_dirty : int;
  w_bytes_copied : int;
  w_snapshot_bytes : int;
  w_downtime_cycles : int;
  w_outcome : string;
  w_parity : bool;
}

type t = {
  g_seed : int;
  g_migrate_at : int;
  g_window_rounds : int;
  g_rows : row list;
  g_parity_ok : bool;
  g_panics : int;
}

(* Same pool and shape as a fleet guest: chaos-governed, enforced view,
   full-view companion, default (fast) engine. *)
let app_pool =
  [ "top"; "apache"; "gvim"; "tcpdump"; "bash"; "gzip"; "vsftpd"; "eog" ]

let round_budget = 12_000

let build profiles ~gseed =
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
    Os.spawn os ~name:"migrate-companion" (companion.App.script 2)
  in
  let inj = Injector.arm ~os ~hyp ~fc plan in
  (name, os, hyp, fc, inj)

let outcome_of f =
  match f () with
  | () -> "ok"
  | exception Os.Guest_panic "scheduler round budget exhausted" -> "wedged"
  | exception Os.Guest_panic m -> "panic: " ^ m

let digest ~name ~outcome ~os ~hyp ~fc =
  (HFleet.guest ~index:0 ~app:name ~outcome ~stats:(Stats.capture fc)
     ~instructions:(Os.instructions os) ~cycles:(Os.cycles os)
     ~frame_keys:(Frame_cache.resident_keys (Hyp.frame_cache hyp))
     ())
    .HFleet.g_digest

(* The control: the same seed run uninterrupted on one machine. *)
let control profiles ~gseed =
  let name, os, hyp, fc, inj = build profiles ~gseed in
  let outcome = outcome_of (fun () -> Os.run ~max_rounds:round_budget os) in
  Injector.disarm inj;
  digest ~name ~outcome ~os ~hyp ~fc

(* The treatment: run to [migrate_at], migrate mid-flight, resume the
   destination for the rest of the budget.  The digest is taken from
   whichever machine held the guest when it finished (the source, if it
   died before the handoff). *)
let migrated profiles ~gseed ~precopy_rounds ~window_rounds ~migrate_at =
  let name, os, hyp, fc, inj = build profiles ~gseed in
  let src =
    { Migrate.g_os = os; g_hyp = Some hyp; g_fc = Some fc; g_inj = Some inj }
  in
  let cur = ref src in
  let rep = ref None in
  let outcome =
    outcome_of (fun () ->
        Os.run ~until:(fun t -> Os.round t >= migrate_at)
          ~max_rounds:round_budget os;
        let dst, r =
          Migrate.migrate ~image:(Profiles.image profiles) ~precopy_rounds
            ~window_rounds src
        in
        cur := dst;
        rep := Some r;
        Os.run
          ~max_rounds:(round_budget - Os.round dst.Migrate.g_os)
          dst.Migrate.g_os)
  in
  let g = !cur in
  Option.iter Injector.disarm g.Migrate.g_inj;
  let d =
    match (g.Migrate.g_hyp, g.Migrate.g_fc) with
    | Some hyp, Some fc -> digest ~name ~outcome ~os:g.Migrate.g_os ~hyp ~fc
    | _ -> "(layer missing)"
  in
  (name, outcome, d, !rep)

let run_row profiles ~gseed ~precopy_rounds ~window_rounds ~migrate_at =
  let expect = control profiles ~gseed in
  let name, outcome, got, rep =
    migrated profiles ~gseed ~precopy_rounds ~window_rounds ~migrate_at
  in
  let z f = match rep with Some r -> f r | None -> 0 in
  {
    w_seed = gseed;
    w_app = name;
    w_precopy_rounds = precopy_rounds;
    w_migrated = rep <> None;
    w_pages_total = z (fun r -> r.Migrate.m_pages_total);
    w_pages_copied = z (fun r -> r.Migrate.m_pages_copied);
    w_final_dirty = z (fun r -> r.Migrate.m_final_dirty);
    w_bytes_copied = z (fun r -> r.Migrate.m_bytes_copied);
    w_snapshot_bytes = z (fun r -> r.Migrate.m_snapshot_bytes);
    w_downtime_cycles = z (fun r -> r.Migrate.m_downtime_cycles);
    w_outcome = outcome;
    w_parity = String.equal expect got;
  }

let precopy_grid ~fast = if fast then [ 1; 3 ] else [ 1; 2; 3; 5; 8 ]
let seeds_per_cell ~fast = if fast then 2 else 3

let run ?(fast = false) ?(seed = 11) profiles =
  let migrate_at = 30 and window_rounds = 12 in
  let rows =
    List.concat_map
      (fun precopy_rounds ->
        List.init (seeds_per_cell ~fast) (fun i ->
            run_row profiles
              ~gseed:(Frand.mix seed ((precopy_rounds * 100) + i))
              ~precopy_rounds ~window_rounds ~migrate_at))
      (precopy_grid ~fast)
  in
  {
    g_seed = seed;
    g_migrate_at = migrate_at;
    g_window_rounds = window_rounds;
    g_rows = rows;
    g_parity_ok = List.for_all (fun r -> r.w_parity) rows;
    g_panics =
      List.length
        (List.filter
           (fun r ->
             String.length r.w_outcome >= 5
             && String.sub r.w_outcome 0 5 = "panic")
           rows);
  }

let row_to_json r =
  J.Obj
    [
      ("seed", J.Int r.w_seed);
      ("app", J.String r.w_app);
      ("precopy_rounds", J.Int r.w_precopy_rounds);
      ("migrated", J.Bool r.w_migrated);
      ("pages_total", J.Int r.w_pages_total);
      ("pages_copied", J.Int r.w_pages_copied);
      ("final_dirty", J.Int r.w_final_dirty);
      ("bytes_copied", J.Int r.w_bytes_copied);
      ("snapshot_bytes", J.Int r.w_snapshot_bytes);
      (* deterministic cost model: recorded, never gated *)
      ("downtime_cycles", J.Int r.w_downtime_cycles);
      ("outcome", J.String r.w_outcome);
      ("parity", J.Bool r.w_parity);
    ]

let to_json t =
  J.Obj
    [
      ("seed", J.Int t.g_seed);
      ("migrate_at", J.Int t.g_migrate_at);
      ("window_rounds", J.Int t.g_window_rounds);
      ("parity_ok", J.Bool t.g_parity_ok);
      ("panics", J.Int t.g_panics);
      ("rows", J.List (List.map row_to_json t.g_rows));
    ]

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "Migration: pre-copy over the dirty-page tracker, stop-and-copy \
        through the wire format (migrate@%d, windows of %d rounds)\n"
       t.g_migrate_at t.g_window_rounds);
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf
           "  seed %-11d %-8s precopy=%d  pages=%-4d copied=%-5d \
            final_dirty=%-4d  snap=%-6dB  downtime=%-6dcyc  %-6s %s\n"
           r.w_seed r.w_app r.w_precopy_rounds r.w_pages_total r.w_pages_copied
           r.w_final_dirty r.w_snapshot_bytes r.w_downtime_cycles r.w_outcome
           (if r.w_parity then "parity=ok" else "parity=DIVERGED")))
    t.g_rows;
  Buffer.add_string buf
    (Printf.sprintf "  parity: %s  panics: %d\n"
       (if t.g_parity_ok then "ok" else "DIVERGED")
       t.g_panics);
  Buffer.contents buf
