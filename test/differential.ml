(* Differential-testing harness: run the same randomized, fault-injected
   guest on both execution engines and digest everything observable
   about the run into one comparable fingerprint.

   The fast engine — software TLBs, decode-once superblocks and view
   tags ([Os.Fast]) — is sound only if it is behavior-invisible: a guest
   must retire the same instructions, charge the same cycles, emit the
   same per-instruction and call/return traces, cover the same code,
   and capture identical stats as on the byte-level reference engine
   ([Os.Reference]), even while a fault plan is switching views,
   injecting spurious exits and storming the recovery governor
   underneath.  test_tlb.ml drives the
   parity run and property through this module. *)

module Os = Fc_machine.Os
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Governor = Fc_core.Governor
module View = Fc_core.View
module Stats = Fc_core.Stats
module App = Fc_apps.App
module Profiles = Fc_benchkit.Profiles
module Fault = Fc_faults.Fault
module Frand = Fc_faults.Frand
module Injector = Fc_faults.Injector
module Metrics = Fc_obs.Metrics
module J = Fc_obs.Jsonx

(* Everything observable about a run, trace streams included, digested
   into a comparable tuple.  [Stats.capture] is the fixed-field
   projection the chaos matrix pins; the instruction/event digests catch
   divergence stats would miss.  Engine-internal counters ([tlb.*],
   [sb.*]) are deliberately outside the fingerprint: they are exactly
   what is allowed to differ. *)
type fingerprint = {
  fp_outcome : string;
  fp_stats : string;
  fp_instructions : int;
  fp_cycles : int;
  fp_insn_digest : int;
  fp_event_digest : int;
  fp_series : string;
      (* Timeseries.fingerprint of the armed telemetry probe: interval
         boundaries and per-interval deltas (engine counters excluded)
         must not move across engines — the ticker fires at
         instruction marks, and instruction retirement is pinned *)
  fp_sampler : string; (* Sampler.fingerprint: the folded profiler stacks *)
  fp_coverage : int;
      (* the coverage hook's stretches coalesced into maximal contiguous
         runs, digested; [run] checks that the instruction trace,
         coalesced the same way, gives the same runs *)
}

(* Maximal contiguous runs of a stream of [lo, hi) stretches: a stretch
   that starts where the open run ends extends it.  Block shapes differ
   between engines and between a trace (one stretch per instruction) and
   the coverage hook (one per block prefix); the runs do not. *)
type runs = { mutable lo : int; mutable hi : int; mutable digest : int }

let new_runs () = { lo = -1; hi = -1; digest = 0 }

let digest_run d lo hi = (((d * 31) + lo) * 31) + hi

let extend r lo hi =
  if lo = r.hi then r.hi <- hi
  else begin
    if r.lo >= 0 then r.digest <- digest_run r.digest r.lo r.hi;
    r.lo <- lo;
    r.hi <- hi
  end

let runs_digest r = if r.lo >= 0 then digest_run r.digest r.lo r.hi else r.digest

(* Engine counters of the run, reported alongside the fingerprint so
   tests can assert the fast paths actually engaged (or stayed silent)
   without polluting the parity comparison. *)
type engine_counters = {
  en_sb_built : int;
  en_sb_hits : int;
  en_sb_invalidations : int;
  en_itlb_hits : int;
}

(* One enforced run: a random application from the pool (plus a fixed
   companion, so context switches and cross-app view switching happen), a
   random fault plan derived from the seed, FACE-CHANGE enabled with the
   default governor, a breakpoint and a view hole on hot kernel paths
   (below), full tracing armed.  [~trace:false] leaves the
   per-instruction trace off, so the fast engine batches step runs under
   the coverage hook; [fp_insn_digest] is then 0. *)
let run ?(trace = true) ~profiles ~engine ~fault_seed () =
  let r = Frand.create (fault_seed lxor 0x7157) in
  let pool = [ "top"; "apache"; "gvim"; "bash"; "gzip" ] in
  let name = Frand.pick r pool in
  let n = 4 + Frand.int r 7 in
  let plan = Fault.gen ~seed:fault_seed ~rounds:120 ~n in
  let app = App.find_exn name in
  let os =
    Os.create ~config:(App.os_config app) ~engine (Profiles.image profiles)
  in
  let ih = ref 0 and eh = ref 0 in
  let traced = new_runs () and covered = new_runs () in
  if trace then
    Os.set_trace os
      (Some
         (fun a len ->
           ih := (((!ih * 31) + a) * 31) + len;
           extend traced a (a + len)));
  Os.set_coverage os (Some (extend covered));
  Os.set_event_trace os (Some (fun ev -> eh := (!eh * 31) + Hashtbl.hash ev));
  let hyp = Hyp.attach os in
  let fc = Facechange.enable ~governor:Governor.default_policy hyp in
  let view = Facechange.load_view fc (Profiles.config_of profiles name) in
  (* Two edits every application meets.  A breakpoint on the second
     instruction of [schedule], inside a hot block: FACE-CHANGE ignores
     the exit, but every engine must take it, so each run executes
     trap-split blocks.  And UD2 over the entry of the syscall gate in the
     view: the application's first syscall recovers the function lazily,
     so each run executes bytes at one pc that the full kernel view (the
     companion's) holds as code.  The two stay on different functions: a
     trap next to the hole would split its block and hide the hole's
     bytes from the body memo. *)
  Hyp.set_breakpoint hyp (Os.resolve_exn os "schedule" + 1);
  let gate = Os.resolve_exn os "syscall_call" in
  (match Facechange.find_view fc view with
  | Some v ->
      View.write_code v ~gva:gate 0x0f;
      View.write_code v ~gva:(gate + 1) 0x0b
  | None -> failwith "the loaded view vanished");
  let (_ : Process.t) = Os.spawn os ~name (app.App.script 4) in
  let companion = App.find_exn "top" in
  let (_ : Process.t) =
    Os.spawn os ~name:"companion" (companion.App.script 2)
  in
  (* the probe is always armed here: every parity property this harness
     proves now also proves that sampling telemetry is behavior-invisible
     (it shares the run with pinned instruction/event digests) *)
  let probe = Fc_benchkit.Probe.arm ~period:25_000 ~os ~hyp ~fc () in
  let inj = Injector.arm ~os ~hyp ~fc plan in
  let outcome =
    match Os.run ~max_rounds:20_000 os with
    | () -> "ok"
    | exception Os.Guest_panic m -> "panic: " ^ m
  in
  Injector.disarm inj;
  let telemetry = Fc_benchkit.Probe.finish probe in
  (match telemetry.Fc_benchkit.Probe.r_resum_errors with
  | [] -> ()
  | e :: _ -> failwith ("telemetry deltas fail to re-sum: " ^ e));
  let coverage = runs_digest covered in
  if trace && runs_digest traced <> coverage then
    failwith "coverage stretches coalesce to other runs than the trace";
  let m = Fc_obs.Obs.metrics (Os.obs os) in
  let c key = Option.value ~default:0 (Metrics.find m key) in
  ( {
      fp_outcome = outcome;
      fp_stats = J.to_string (Stats.to_json (Stats.capture fc));
      fp_instructions = Os.instructions os;
      fp_cycles = Os.cycles os;
      fp_insn_digest = !ih;
      fp_event_digest = !eh;
      fp_series =
        Fc_obs.Timeseries.fingerprint telemetry.Fc_benchkit.Probe.r_series;
      fp_sampler =
        Fc_obs.Sampler.fingerprint telemetry.Fc_benchkit.Probe.r_folds;
      fp_coverage = coverage;
    },
    {
      en_sb_built = c "sb.blocks_built";
      en_sb_hits = c "sb.hits";
      en_sb_invalidations = c "sb.invalidations";
      en_itlb_hits = c "tlb.i_hits";
    } )

(* Field-by-field Alcotest comparison: a mismatch names the diverging
   observable instead of dumping two opaque tuples. *)
let check_parity ~label ~expect ~got =
  Alcotest.(check string) (label ^ ": outcome") expect.fp_outcome got.fp_outcome;
  Alcotest.(check string) (label ^ ": stats capture") expect.fp_stats
    got.fp_stats;
  Alcotest.(check int)
    (label ^ ": instructions retired")
    expect.fp_instructions got.fp_instructions;
  Alcotest.(check int) (label ^ ": cycles") expect.fp_cycles got.fp_cycles;
  Alcotest.(check int)
    (label ^ ": instruction trace")
    expect.fp_insn_digest got.fp_insn_digest;
  Alcotest.(check int)
    (label ^ ": call/return events")
    expect.fp_event_digest got.fp_event_digest;
  Alcotest.(check string)
    (label ^ ": telemetry series (interval boundaries + deltas)")
    expect.fp_series got.fp_series;
  Alcotest.(check string)
    (label ^ ": profiler folds")
    expect.fp_sampler got.fp_sampler;
  Alcotest.(check int)
    (label ^ ": coverage runs")
    expect.fp_coverage got.fp_coverage
