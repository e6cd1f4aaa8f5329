(** The telemetry probe: arms the time series ({!Fc_obs.Timeseries}) and
    the guest-PC profiler ({!Fc_obs.Sampler}) on a guest off one
    deterministic instruction-count ticker ([Os.arm_tick]).

    Armed telemetry is behavior-invisible by construction: stacks are
    walked through [Hypervisor.sample_stack] (uncharged, span-free) and
    the scrape only reads the registry, so an armed run retires the same
    instructions, charges the same cycles and captures the same stats as
    a disarmed one.  [bench/check.exe BENCH_telemetry.json] pins exactly
    that. *)

type t

type result = {
  r_series : Fc_obs.Timeseries.series;
  r_folds : Fc_obs.Sampler.fold list;
  r_ticks : int;  (** ticker firings, final flush included *)
  r_samples : int;  (** profiler samples (= ticks × vCPUs) *)
  r_vcpus : int;
  r_resum_errors : string list;
      (** counters whose series deltas fail to re-sum to the final
          registry value; empty when the invariant holds (always, unless
          the ring shed points) *)
}

val default_period : int
(** 100_000 instructions per interval. *)

val arm :
  ?period:int ->
  ?capacity:int ->
  ?wall:(unit -> float) ->
  os:Fc_machine.Os.t ->
  hyp:Fc_hypervisor.Hypervisor.t ->
  fc:Fc_core.Facechange.t ->
  unit ->
  t
(** Install the ticker.  Each tick records one profiler sample per vCPU
    (kernel stack when the current task is parked in the kernel, a bare
    ["user"] frame otherwise; an [Event.Sample] is also emitted when the
    trace is armed), then scrapes one series interval.  [wall], when
    given (e.g. [Unix.gettimeofday]), stamps each point with a wall
    clock — excluded from fingerprints, used by [facechange top] for
    ips. *)

val finish : t -> result
(** Disarm the ticker, flush the tail interval and export.  The number
    of intervals is [floor(instructions / period) + 1] — deterministic
    for a deterministic guest. *)
