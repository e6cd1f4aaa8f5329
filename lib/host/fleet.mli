(** The fleet host: shard N independent guest VMs across domains and
    merge what they report.

    Each guest is a self-contained simulation (its own [Os], physical
    memory, observability hub, hypervisor and FACE-CHANGE instance), so
    the domain-safety strategy is {e per-domain state, merge on export}:
    nothing mutable is shared between workers, and every cross-guest
    aggregate — the merged {!Fc_core.Stats}, the fleet-wide frame-dedup
    ratio, the fleet fingerprint — is computed after the pool has joined,
    folding per-guest results in index order.  Because a guest's result
    depends only on its index (callers derive per-guest PRNG seeds from
    the index, see {!Fc_faults.Frand.mix}), the merged report is
    bit-identical for 1 domain and N domains, which
    [bench/check.exe BENCH_fleet.json] and [test/test_fleet.ml] enforce.

    A report carries no host time: guests sharded over domains run at
    once, so their time cannot be split by layer
    ({!Fc_obs.Layers}).  The repository benchmark's [fleet] workload
    times fleets. *)

type telemetry = {
  t_series : Fc_obs.Timeseries.series;
      (** delta-encoded interval series (merged: aligned by nominal
          boundary index, summed per key) *)
  t_folds : Fc_obs.Sampler.fold list;
      (** collapsed profiler stacks (merged: counts summed per stack) *)
  t_samples : int;  (** profiler samples recorded (= sum of fold counts) *)
}

type guest = {
  g_index : int;
  g_app : string;  (** the profiled application this guest ran *)
  g_outcome : string;  (** ["ok"], ["wedged"], or ["panic: ..."] *)
  g_stats : Fc_core.Stats.t;
  g_instructions : int;  (** guest instructions retired *)
  g_cycles : int;
  g_frame_keys : string list;
      (** content keys of the resident view frames
          ({!Fc_mem.Frame_cache.resident_keys}) — the fleet's cross-guest
          dedup unit *)
  g_telemetry : telemetry option;
      (** per-guest time series + profiler folds when the run was
          telemetry-armed; plain data, safe to move across Domains *)
  g_digest : string;
      (** deterministic per-guest fingerprint (integer counters and
          content keys only — no floats, no telemetry, so
          armed and disarmed runs of the same seed fingerprint
          identically) *)
}

val guest :
  ?telemetry:telemetry ->
  index:int ->
  app:string ->
  outcome:string ->
  stats:Fc_core.Stats.t ->
  instructions:int ->
  cycles:int ->
  frame_keys:string list ->
  unit ->
  guest
(** Build a guest record, computing [g_digest] from the non-telemetry
    fields. *)

type report = {
  r_domains : int;  (** workers requested (1 on the 4.14 fallback) *)
  r_guests : int;
  r_instructions : int;
  r_cycles : int;
  r_merged : Fc_core.Stats.t;  (** {!Fc_core.Stats.merge} of every guest *)
  r_outcomes : (string * int) list;  (** outcome -> count, sorted *)
  r_panics : int;
  r_wedged : int;
  r_total_frames : int;
      (** resident view frames summed over guests (each guest's are
          already deduped by its own frame cache) *)
  r_unique_frames : int;  (** distinct frame contents fleet-wide *)
  r_dedup_ratio : float;
      (** [1 - unique/total] — the fraction of resident frames a
          cross-guest content-keyed cache would not have to materialize;
          [0.] for an empty fleet *)
  r_per_app_ok : bool;
      (** merged per-app attribution still sums to the merged globals *)
  r_fingerprint : string;
      (** digest of every guest digest, folded in index order —
          independent of domain count by construction *)
  r_telemetry : telemetry option;
      (** fleet-wide merge of every telemetry-armed guest's series and
          folds ({!Fc_obs.Timeseries.merge} / {!Fc_obs.Sampler.merge});
          [None] when no guest carried telemetry *)
  r_guests_detail : guest array;  (** in index order *)
}

val run : ?domains:int -> guests:int -> (int -> guest) -> report
(** Shard [guests] jobs across a {!Pool} of [domains] workers (default
    {!Pool.create}'s default) and merge.  The job for index [i] must
    depend only on [i] for the determinism guarantee to hold.

    Each worker has its own {!Fc_machine.Os.spares} store, and runs
    every job in it ({!Fc_machine.Os.reusing}): the machines a job boots
    are reclaimed when it returns, and the next job on that worker boots
    into their frame buffers and block arrays, so only each worker's
    first guest allocates them in full.  A job must therefore return
    plain data: a machine it lets escape can no longer run, spawn or be
    captured.  The stores die when [run] returns. *)

val merge : domains:int -> guest array -> report
(** The export-side merge alone — exposed for tests that build guest
    records by hand. *)
