(** The migration benchmark arm ([bench/main.exe -- migrate]).

    For each pre-copy round count, seeded chaos-style guests are run to a
    fixed round, live-migrated ({!Fc_host.Migrate}) and resumed on the
    destination machine; a control run of the same seed goes
    uninterrupted.  The acceptance property is digest {e parity}: the
    migrated guest must finish with exactly the control's fingerprint
    (outcome, stats, instructions, cycles, resident frame keys).  The arm
    tabulates how the final dirty set — and so the modeled downtime —
    shrinks as pre-copy rounds grow.

    [bench/check.exe BENCH_migrate.json] pins the deterministic counters
    (pages, bytes, snapshot sizes, parity, zero panics); [downtime_cycles]
    is a cost model, only required positive, never pinned. *)

type row = {
  w_seed : int;
  w_app : string;
  w_precopy_rounds : int;
  w_migrated : bool;  (** false when the guest died before the handoff *)
  w_pages_total : int;
  w_pages_copied : int;
  w_final_dirty : int;
  w_bytes_copied : int;
  w_snapshot_bytes : int;
  w_downtime_cycles : int;
  w_outcome : string;
  w_parity : bool;  (** migrated digest = control digest *)
}

type t = {
  g_seed : int;
  g_migrate_at : int;  (** scheduler round the handoff starts at *)
  g_window_rounds : int;  (** guest rounds between pre-copy iterations *)
  g_rows : row list;
  g_parity_ok : bool;
  g_panics : int;
}

val run : ?fast:bool -> ?seed:int -> Profiles.t -> t
(** [seed] defaults to 11; [fast] (default [false]) shrinks the pre-copy
    grid and seeds per cell. *)

val to_json : t -> Fc_obs.Jsonx.t
(** The [BENCH_migrate.json] payload (under the ["migrate"] key). *)

val render : t -> string
