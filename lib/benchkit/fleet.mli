(** The fleet benchmark arm: hundreds of independent guests sharded
    across domains ([bench/main.exe -- fleet]).

    Every guest is a seeded chaos-style run — one profiled application
    under its enforced view, a companion on the full view, a governed
    fault plan — whose entire behavior derives from
    [Frand.mix seed index], so a cell's merged report is independent of
    its domain count.  The sweep measures the fleet-wide frame-dedup
    ratio (what a cross-guest content-keyed cache would save on top of
    each guest's own sharing); the pinned cell re-runs a fixed 40-guest
    fleet at 1, 2 and 4 domains so the CI gate
    ([bench/check.exe BENCH_fleet.json]) can prove the merged
    fingerprints identical and pin the deterministic counters
    independent of [--fast].  Cells are not timed (see
    {!Fc_host.Fleet}). *)

type cell = {
  c_report : Fc_host.Fleet.report;
  c_requested_domains : int;
      (** as asked; [c_report.r_domains] matches, including on the
          sequential fallback where only wall-clock parallelism is lost *)
}

type t = {
  f_seed : int;
  f_parallel : bool;  (** the build's {!Fc_host.Pool.parallel} *)
  f_pinned_guests : int;
  f_pinned : cell list;  (** the fixed cell at 1, 2, 4 domains *)
  f_warm : cell list;
      (** the fixed cell again, every guest booted from a wire-format
          snapshot ({!run_cell} [~warm_start:true]); its fingerprints
          must equal the cold-boot pinned cell's *)
  f_sweep : cell list;  (** domains x guests grid (smaller with [fast]) *)
}

val pinned_guests : int
(** 40 — the fixed cell the gates pin, independent of [--fast]. *)

val pinned_domains : int list
(** [[1; 2; 4]] — the domain counts the pinned cell re-runs at. *)

val run_guest :
  ?telemetry:int ->
  ?warm_start:bool ->
  Profiles.t ->
  seed:int ->
  int ->
  Fc_host.Fleet.guest
(** One guest of a cell, by index: the job {!run_cell} hands
    {!Fc_host.Fleet.run}. *)

val run_cell :
  ?telemetry:int ->
  ?warm_start:bool ->
  Profiles.t ->
  seed:int ->
  domains:int ->
  guests:int ->
  cell
(** One fleet: [guests] seeded guest VMs sharded over [domains].
    [telemetry] arms the {!Probe} on every guest at that period
    (instructions per interval); the probe is behavior-invisible, so an
    armed cell's fingerprint and counters match a disarmed one's —
    [bench/check.exe BENCH_telemetry.json] holds it to that.  [warm_start]
    (default [false]) freezes each fully-armed guest at its boot round,
    round-trips it through {!Fc_snapshot.Snapshot} wire bytes, and runs
    the restored machine — digests must match a cold boot's. *)

val run : ?fast:bool -> ?seed:int -> Profiles.t -> t
(** The full arm: pinned cell (always 40 guests x domains {1,2,4}) plus
    the sweep — 1..8 domains x 10..500 guests, or a reduced grid when
    [fast] (default [false]).  [seed] defaults to 7. *)

val to_json : t -> Fc_obs.Jsonx.t
(** The [BENCH_fleet.json] payload (under the ["fleet"] key); every
    counter the gate pins is an exact int. *)

val render : t -> string
