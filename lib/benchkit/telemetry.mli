(** The telemetry benchmark arm ([bench/main.exe -- telemetry]).

    Proves the continuous-telemetry layer deterministic and
    behavior-invisible: the pinned fleet cell armed at 1/2/4 domains
    against a disarmed control (fleet fingerprints must match, merged
    telemetry fingerprints must match across domain counts), one fixed
    guest on the reference and the fast engine (series and profiler
    fingerprints must be identical), and a unixbench-style
    armed profile run whose folded stacks feed flamegraph.pl.  Gated by
    [bench/check.exe BENCH_telemetry.json]. *)

type engine_arm = {
  ea_name : string;  (** ["reference"] or ["fast"] *)
  ea_outcome : string;
  ea_intervals : int;
  ea_samples : int;
  ea_series_fp : string;
  ea_sampler_fp : string;
  ea_resum_errors : string list;
}

type profile = {
  pr_workload : string;
  pr_period : int;
  pr_ticks : int;
  pr_samples : int;
  pr_vcpus : int;
  pr_outcome : string;
  pr_series : Fc_obs.Timeseries.series;
  pr_folds : Fc_obs.Sampler.fold list;
  pr_resum_errors : string list;
}

type t = {
  t_seed : int;
  t_period : int;
  t_parallel : bool;
  t_armed : Fleet.cell list;
  t_disarmed : Fleet.cell;
  t_matrix : engine_arm list;
  t_profile : profile;
}

val run : ?seed:int -> Profiles.t -> t
(** [seed] defaults to 7 — the fleet gate's seed, so the armed cells are
    the exact fleet the fleet pins (bench/pins/fleet.json) describe. *)

val to_json : t -> Fc_obs.Jsonx.t
(** The [BENCH_telemetry.json] payload (under the ["telemetry"] key). *)

val folded : t -> string
(** The profile run's collapsed stacks — pipe to [flamegraph.pl]. *)

val render : t -> string
