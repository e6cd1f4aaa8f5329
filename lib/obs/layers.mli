(** Host time split by layer: a span accountant over a guest's trace.

    The accountant subscribes to a guest's {!Trace} and reads a host
    clock on every {!Event.Span_begin} and {!Event.Span_end}.  Inside a
    timed stretch ({!time}) the host time between two span events is
    charged to the innermost span open over it — [run_slice],
    [exit_handling], [backtrace], [recovery] or [view_build] — and time
    with no span open goes to [sched].  Every second of a stretch lands in
    exactly one layer, so the layers sum to {!total} by construction.

    The clock is passed in (a caller hands it [Unix.gettimeofday]), so
    this library stays free of [unix].  An accountant follows one guest at
    a time and sums over every guest and stretch it has followed:
    {!attach}ing it to a new guest forgets the spans the previous guest
    left open, and ignores that guest's later events.  A stretch that runs
    several guests at once (a fleet sharded over domains) cannot be split
    this way. *)

type t

val layers : string list
(** Layer names in report order: the five {!Span.kind_label}s, then
    ["sched"]. *)

val create : clock:(unit -> float) -> t
(** An accountant with every layer at zero, following no guest. *)

val attach : t -> Trace.t -> unit
(** Follow this guest's span events from now on (subscribing arms the
    sink).  Attach before the guest opens its first span, so none is
    missed. *)

val time : t -> (unit -> 'a) -> 'a
(** [time t f] runs [f ()] as a timed stretch, charging its host time
    to the layers, also when [f] raises.  Stretches do not nest:
    [Invalid_argument] inside another one. *)

val follow : t option -> Trace.t -> (unit -> 'a) -> 'a
(** [follow layers sink] {!attach}es the accountant, if there is one, to
    [sink] and returns its {!time}; with none, a stretch just runs.  For
    workloads that run timed or untimed. *)

val total : t -> float
(** Seconds spent inside timed stretches. *)

val self : t -> string -> float
(** Seconds charged to one of {!layers}; [0.] for any other name. *)

val to_json : t -> Jsonx.t
(** [{"run_slice": s, ..., "sched": s}], in {!layers} order. *)
