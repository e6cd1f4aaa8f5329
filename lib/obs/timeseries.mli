(** Delta-encoded, ring-buffered time series over the {!Metrics}
    registry.

    A {!tick} scrapes the registry into one {!point}: counters as the
    delta since the previous tick, gauges as their value at the
    boundary, histograms as per-interval bucket-delta rows.  The first
    tick counts from zero, so over a full run the per-interval counter
    deltas re-sum {e exactly} to the final registry totals — the
    invariant the bench gate ([bench/check.exe BENCH_telemetry.json])
    checks.

    Ticks are driven externally — by the deterministic instruction-count
    ticker ([Os.arm_tick]), never wall clock — so a series is a pure
    function of guest execution and can be fingerprinted and pinned in
    CI.  {!series} is plain immutable data, safe to move across Domains
    and merge fleet-wide ({!merge}). *)

type hrow = {
  hr_count : int;  (** observations this interval *)
  hr_sum : int;  (** summed value this interval *)
  hr_max : int;
      (** cumulative max {e at} the boundary (a per-interval max is not
          recoverable from monotone registry state) *)
  hr_buckets : (int * int) list;
      (** (pow2, count delta) ascending, zero deltas omitted *)
}

type point = {
  p_boundary : int;  (** 1-based interval index *)
  p_instructions : int;  (** retired guest instructions at the tick *)
  p_wall : float option;
      (** wall-clock seconds if the caller recorded one; excluded from
          {!fingerprint} — never deterministic *)
  p_counters : (string * int) list;  (** key -> per-interval delta *)
  p_gauges : (string * int) list;  (** key -> value at the boundary *)
  p_histograms : (string * hrow) list;
}
(** Keys are ["subsystem.name"] (["subsystem.name{label}"] for family
    members), in registration order for a scraped point and sorted for a
    merged one. *)

type series = {
  s_period : int;  (** instructions per interval *)
  s_intervals : int;  (** ticks fired over the series' lifetime *)
  s_dropped : int;  (** points shed by the bounded ring *)
  s_points : point list;  (** oldest first *)
}

type t

val create : ?capacity:int -> period:int -> Metrics.t -> t
(** [capacity] (default 4096) bounds the point ring; [period] is the
    nominal instructions-per-interval, recorded in the exported series
    (the ticker owns the actual firing). *)

val period : t -> int
val intervals : t -> int
(** Ticks fired so far. *)

val tick : ?wall:float -> t -> instructions:int -> unit
(** Scrape the registry into one interval point.  Call it from the
    [Os.arm_tick] callback, and once more after the run to flush the
    tail interval. *)

val export : t -> series

val sample_key : Metrics.sample -> string
(** The series key of a registry sample: ["subsystem.name"] or
    ["subsystem.name{label}"]. *)

val totals : series -> (string * int) list
(** Per-key sum of the counter deltas across all held points — equals
    the final registry totals when no points were dropped. *)

val row_percentile : hrow -> float -> float
(** {!Metrics.percentile} over an interval (or merged) histogram row;
    [nan] when the row is empty. *)

val merge : series list -> series
(** Fleet merge: points align by nominal boundary index (every guest
    ticks at the same local instruction marks), counter/gauge values and
    histogram rows sum per key, instructions sum, wall takes the max.
    Periods must match.  The result is independent of input order and of
    how guests were sharded across Domains. *)

val engine_excludes : string list
(** Keys that describe the host's translation caches rather than the
    guest: the ["tlb"] and ["sb"] subsystems (which differ between the
    reference and the fast engine) and ["os.decode_cache_frames"] (cache
    bookkeeping a restored machine rebuilds from empty).  The default {!fingerprint} exclusion. *)

val fingerprint : ?exclude:string list -> series -> string
(** Hex MD5 over every (boundary, key, integer) row of the series,
    skipping keys whose subsystem or full key is listed in [exclude]
    (default {!engine_excludes}) and all wall-clock fields.  Identical
    across engine arms and fleet domain counts for the same seed. *)
