(** A static shard pool over OCaml 5 domains (sequential on 4.14).

    The fleet host's unit of parallelism: [map] runs an indexed job over
    [0 .. n-1], sharding indices across workers by stride ([worker w]
    takes every [workers]-th index starting at [w]).  Each result slot is
    written by exactly one worker and read only after every worker has
    joined, so no locking is involved; when each job depends only on its
    own index, the results — and anything merged from them in index
    order — are identical for any worker count.  That invariant is what
    the fleet determinism gate ([bench/check.exe BENCH_fleet.json])
    enforces end-to-end. *)

type t

val parallel : bool
(** [true] when the build selected the Domains backend (OCaml >= 5.0),
    [false] on the sequential 4.14 fallback. *)

val create : ?domains:int -> unit -> t
(** A pool that will use up to [domains] workers per [map] (default: the
    runtime's recommended domain count, capped at 8; always 1 on the
    sequential backend).  Workers are spawned per call and joined before
    it returns — the pool holds no threads between calls.
    @raise Invalid_argument when [domains < 1]. *)

val domains : t -> int

val map : t -> int -> (int -> 'a) -> 'a array
(** [map t n f] — [[| f 0; ...; f (n-1) |]], computed with up to
    [domains t] workers.  A raising job fails the whole map (after all
    workers joined).  [n = 0] yields [[||]]. *)

val iter : t -> int -> (int -> unit) -> unit
