(* The telemetry probe: one object that arms both halves of the
   continuous-telemetry layer on a guest — the delta-encoded time series
   (Fc_obs.Timeseries) and the guest-PC profiler (Fc_obs.Sampler) — off
   a single deterministic instruction-count ticker (Os.arm_tick).

   Everything here must be behavior-invisible: the sampler walks stacks
   through Hypervisor.sample_stack (uncharged, span-free), and the
   series scrape only reads the registry.  The only guest-visible state
   the probe touches is the software TLB warmed by its VMI reads, whose
   counters live in the fingerprint exclusion list — so an armed run
   retires the same instructions, charges the same cycles and captures
   the same stats as a disarmed one, which bench/check.exe pins on
   BENCH_telemetry.json. *)

module Os = Fc_machine.Os
module Cpu = Fc_machine.Cpu
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Obs = Fc_obs.Obs
module Event = Fc_obs.Event
module Metrics = Fc_obs.Metrics
module Timeseries = Fc_obs.Timeseries
module Sampler = Fc_obs.Sampler

(* ~10-60 intervals for the workloads benchkit runs (one guest retires
   on the order of 10^6 instructions) — enough resolution for `top` and
   flamegraphs without ring pressure. *)
let default_period = 100_000

type t = {
  os : Os.t;
  hyp : Hyp.t;
  fc : Facechange.t;
  series : Timeseries.t;
  sampler : Sampler.t;
  wall : (unit -> float) option;
  mutable ticks : int;
}

type result = {
  r_series : Timeseries.series;
  r_folds : Sampler.fold list;
  r_ticks : int;
  r_samples : int;
  r_vcpus : int;
  r_resum_errors : string list;
}

(* One sample per vCPU: the task current on that vCPU, its kernel stack
   when it is parked in the kernel (saved_regs is the suspended frame
   the scheduler stashed), a bare "user" frame otherwise.  Frames are
   recorded root-first, which is what the collapsed-stack format wants;
   sample_stack returns them leaf-first. *)
let sample t =
  let obs = Os.obs t.os in
  for vid = 0 to Os.vcpu_count t.os - 1 do
    let p = Os.current_of t.os ~vid in
    let comm = p.Process.name in
    let view = Facechange.active_index ~vid t.fc in
    let pc, frames =
      match p.Process.saved_regs with
      | Some regs when p.Process.in_kernel ->
          let w =
            Hyp.sample_stack t.hyp ~eip:regs.Cpu.eip ~ebp:regs.Cpu.ebp
              ~esp:regs.Cpu.esp ()
          in
          (regs.Cpu.eip, List.rev_map (Hyp.render_addr t.hyp) w.Hyp.frames)
      | Some regs -> (regs.Cpu.eip, [ "user" ])
      | None -> (0, [ "user" ])
    in
    Sampler.record t.sampler ~comm ~frames;
    if Obs.armed obs then
      Obs.emit obs (Event.Sample { vid; pid = p.Process.pid; comm; pc; view })
  done

let tick t =
  t.ticks <- t.ticks + 1;
  (* sample before scraping: the stack walk's VMI reads bump tlb.*
     counters, and scraping afterwards keeps this tick's own footprint
     inside this interval — so a finished run's deltas still re-sum
     exactly to the registry. *)
  sample t;
  Timeseries.tick
    ?wall:(Option.map (fun f -> f ()) t.wall)
    t.series
    ~instructions:(Os.instructions t.os)

let arm ?(period = default_period) ?capacity ?wall ~os ~hyp ~fc () =
  let series = Timeseries.create ?capacity ~period (Obs.metrics (Os.obs os)) in
  let t =
    { os; hyp; fc; series; sampler = Sampler.create (); wall; ticks = 0 }
  in
  Os.arm_tick os ~period (fun () -> tick t);
  t

(* Every registry counter whose series total disagrees with its final
   registry value.  Empty for any run whose ring shed nothing — the
   sum-equals-total invariant.  Not applicable once the ring dropped
   points (the window no longer covers the whole run). *)
let resum_errors t series =
  if series.Timeseries.s_dropped > 0 then []
  else
    let totals = Timeseries.totals series in
    List.filter_map
      (fun (s : Metrics.sample) ->
        match s.Metrics.value with
        | Metrics.Counter v ->
            let key = Timeseries.sample_key s in
            let summed =
              Option.value ~default:0 (List.assoc_opt key totals)
            in
            if summed <> v then
              Some (Printf.sprintf "%s: deltas sum to %d, registry has %d"
                      key summed v)
            else None
        | _ -> None)
      (Metrics.snapshot (Obs.metrics (Os.obs t.os)))

let finish t =
  Os.disarm_tick t.os;
  (* flush the tail: work retired since the last period mark *)
  tick t;
  let series = Timeseries.export t.series in
  {
    r_series = series;
    r_folds = Sampler.export t.sampler;
    r_ticks = t.ticks;
    r_samples = Sampler.samples t.sampler;
    r_vcpus = Os.vcpu_count t.os;
    r_resum_errors = resum_errors t series;
  }
