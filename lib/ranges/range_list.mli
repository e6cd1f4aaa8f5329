(** Tagged kernel-code range lists — the paper's [K[app]].

    A range list is a set of half-open address spans, each tagged with the
    {!Segment.t} it belongs to.  The representation is always normalized:
    within a segment, spans are sorted, pairwise disjoint, and non-adjacent
    (adjacent spans are merged, matching the paper's "after merging any
    adjacent blocks" step).

    The paper's operators map as follows:
    - [K1 ∩ K2]        → {!inter}
    - [LEN(K)]         → {!len}
    - [SIZE(K)]        → {!size}
    - similarity [S]   → {!similarity} (Equation 1).

    Internally each segment's spans form an interval index (a sorted
    array); the point and window queries that dominate view
    materialization and recovery — {!mem} and {!covered_spans} — bisect in
    O(log n) rather than scanning. *)

type t

val empty : t
val is_empty : t -> bool

val add : t -> Segment.t -> Span.t -> t
(** Insert a span, merging with any overlapping or adjacent spans of the
    same segment. Empty spans are ignored. *)

val add_range : t -> Segment.t -> lo:int -> hi:int -> t
(** [add_range t seg ~lo ~hi] = [add t seg (Span.make ~lo ~hi)]. *)

val of_list : (Segment.t * Span.t) list -> t
(** The list's spans, in any order, normalized in one sort-and-merge
    pass per segment: equal to folding {!add} over the list, in
    O(n log n) rather than one array rebuild per span. *)

val to_list : t -> (Segment.t * Span.t) list
(** Deterministic order: segments ordered by {!Segment.compare}, spans by
    address. *)

val segments : t -> Segment.t list
val spans : t -> Segment.t -> Span.t list
(** Spans recorded for one segment (empty list if none). *)

val mem : t -> Segment.t -> int -> bool
(** [mem t seg addr] — is [addr] covered under [seg]?  O(log n). *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
(** [diff a b] — parts of [a] not covered by [b]. *)

val len : t -> int
(** [LEN]: number of (segment, span) elements. *)

val size : t -> int
(** [SIZE]: total number of addresses covered, across all segments. *)

val size_of_segment : t -> Segment.t -> int

val similarity : t -> t -> float
(** Equation 1: [SIZE(K1 ∩ K2) / MAX(SIZE(K1), SIZE(K2))].
    Returns [0.] when both lists are empty. *)

val subset : t -> t -> bool
(** [subset a b] — every address of [a] is covered by [b]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val covered_spans : t -> Segment.t -> Span.t -> Span.t list
(** [covered_spans t seg window] — the parts of [window] covered by [t]
    under [seg], in address order.  O(log n + answer). *)
