(** The metrics registry: named counters, gauges, and cycle histograms.

    Counters are find-or-create and owned by the instrumented subsystem:
    an increment is one mutable-field write, so hot paths (VM-exit
    dispatch, the cycle-charging path) pay no more than they did with a
    plain [mutable int].  Gauges are read-through callbacks over state a
    subsystem already maintains (live frames, loaded views).  Histograms
    bucket observations by power of two — cheap enough for per-charge
    cycle costs.

    Keys are ["subsystem.name"]; registration order is preserved in
    {!snapshot} so exports are stable.

    {b Labeled families} break one logical metric down by a bounded
    dimension — here, the guest application (comm) that paid for the
    work.  A family member registers under ["subsystem.name{label}"] and
    appears in {!snapshot} with [label = Some _].  Resolving a member
    costs a hashtable lookup and a key allocation, so hot paths should
    memoize the returned counter per label rather than re-resolving on
    every increment. *)

type t
type counter
type histogram

val create : unit -> t

val counter : t -> subsystem:string -> string -> counter
(** Find or create.  A found counter keeps its value; use {!reset} when a
    fresh owner (a re-attached hypervisor) takes it over. *)

val histogram : t -> subsystem:string -> string -> histogram

val gauge : t -> subsystem:string -> string -> (unit -> int) -> unit
(** Register (or replace) a read-through gauge. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val reset : counter -> unit

val observe : histogram -> int -> unit
(** Negative observations are clamped to 0. *)

val reset_histogram : histogram -> unit

(** {1 Labeled families} *)

type family
(** A handle naming ["subsystem.name"]; members are resolved per label. *)

val counter_family : t -> subsystem:string -> string -> family
val histogram_family : t -> subsystem:string -> string -> family

val family_counter : family -> string -> counter
(** Find or create the member counter for a label.  Memoize the result
    on hot paths. *)

val family_histogram : family -> string -> histogram

val reset_family : family -> unit
(** Reset every already-registered member of the family (counters to 0,
    histograms emptied).  Members stay registered. *)

val labels : t -> string -> (string * int) list
(** [(label, value)] for every labeled counter/gauge member registered
    under the ["subsystem.name"] key, in registration order. *)

(** {1 Snapshots} *)

type histogram_snapshot = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_buckets : (int * int) list;
      (** (pow2, count): observations with [2^pow2 <= v < 2^(pow2+1)]
          (pow2 0 also holds 0 and 1); zero buckets omitted *)
}

type sample_value =
  | Counter of int
  | Gauge of int
  | Histogram of histogram_snapshot

type sample = {
  subsystem : string;
  name : string;
  label : string option;  (** [Some _] for labeled family members *)
  value : sample_value;
}

val snapshot : t -> sample list
(** All registered instruments, in registration order. *)

val find : t -> string -> int option
(** Value of the counter or gauge registered under ["subsystem.name"]. *)

(** {1 Dump / load}

    The plain-data image of every {e stored} instrument — counters and
    histograms, labeled family members included — that the snapshot
    codec writes.  Gauges are read-through closures over live subsystem
    state and are deliberately excluded: the restoring side re-registers
    them over the rebuilt structures, and their values follow. *)

val dump : t -> sample list
(** {!snapshot} without the gauges, in registration order. *)

val load : t -> sample list -> unit
(** Find-or-create each counter and histogram (family members via their
    label) and overwrite its value; [Gauge] samples are skipped.
    Instruments already registered keep their registration slot; new
    ones append.  Apply {e last} during a restore: the constructors run
    beforehand reset the counters they own. *)

val percentile : histogram_snapshot -> float -> float
(** [percentile s q] estimates the [q]-quantile ([0. <= q <= 1.]) by
    linear interpolation inside the log2 bucket holding the target rank;
    the bucket's value range is capped at the observed max.  [nan] for an
    empty histogram — a quantile of nothing is undefined, and exporters
    must render it as absent (Jsonx maps non-finite floats to [null];
    the CSV exporter leaves the cell empty).  Estimates are exact only up
    to bucket resolution. *)
