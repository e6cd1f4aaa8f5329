(** Deterministic whole-machine snapshots (DESIGN.md §13).

    [capture] freezes a guest — OS, hypervisor, FACE-CHANGE, fault-plan
    cursor, metrics — into a plain-data value; [encode]/[decode] map it
    to the versioned [.fcsnap] container (magic ["FCSN"], per-section
    CRC32, content-keyed guest RAM store); [restore] rebuilds a running
    machine that is fingerprint-identical to one that never stopped
    (proven by the differential suite in [test/test_snapshot.ml]).

    The decoder is total: corrupt, truncated, or wrong-version input
    returns a typed {!error} naming the section and absolute byte
    offset — it never raises. *)

type t = {
  s_meta : (string * string) list;
      (** free-form provenance (app, seed, remaining rounds, …) *)
  s_tables : (int * int) list array;
      (** the identity-preserving EPT table pool: pool id -> sparse
          (slot, frame) entries.  Tables shared by reference between
          vCPUs, the hypervisor's pristine set and the views are stored
          once and re-shared on restore. *)
  s_os : Fc_machine.Os.frozen;
  s_hyp : Fc_hypervisor.Hypervisor.frozen option;
  s_fc : Fc_core.Facechange.frozen option;
  s_cursor : Fc_faults.Injector.cursor option;
  s_metrics : Fc_obs.Metrics.dump_entry list;
}

type error = { section : string; offset : int; reason : string }
(** [section] is a 4-char tag (or ["header"]/["trailer"]/["file"]);
    [offset] is an absolute byte offset into the input. *)

val error_to_string : error -> string

val meta : t -> (string * string) list
val meta_find : t -> string -> string option

val capture :
  ?meta:(string * string) list ->
  ?cursor:Fc_faults.Injector.cursor ->
  ?fc:Fc_core.Facechange.t ->
  ?hyp:Fc_hypervisor.Hypervisor.t ->
  Fc_machine.Os.t ->
  t
(** Freeze the machine at a scheduler round boundary.  Layers are
    optional: a bare guest snapshots with just [os]; pass [hyp] (and
    [fc], [cursor]) to capture the full stack.  Raises
    [Invalid_argument] mid-round (see {!Fc_machine.Os.freeze}). *)

type restored = {
  r_os : Fc_machine.Os.t;
  r_hyp : Fc_hypervisor.Hypervisor.t option;
  r_fc : Fc_core.Facechange.t option;
  r_inj : Fc_faults.Injector.t option;
      (** re-armed from the cursor when one was captured *)
  r_meta : (string * string) list;
}

val restore :
  ?obs:Fc_obs.Obs.t -> ?image:Fc_kernel.Image.t -> t -> restored
(** Rebuild the machine.  The kernel image is not serialized
    ({!Fc_kernel.Image.build} is deterministic); pass [image] to reuse a
    built one.  Restore order is OS → hypervisor → FACE-CHANGE →
    injector re-arm → metrics (last, overwriting the fresh instruments
    with the captured continuous-run values). *)

val version : int
(** The wire-format version written into (and required of) every
    container.  Version 4 drops the divergent-page set; version 3
    records the execution engine as one byte ([Os.Reference] or
    [Os.Fast]); version 2 added per-vCPU EPT tag state (active view,
    era, per-view generations) and the divergent-page set.  Older
    streams are rejected with the typed unsupported-version error. *)

val encode : t -> string
(** The [.fcsnap] container bytes.  Encoding is deterministic: equal
    snapshots produce byte-identical output on OCaml 4.14 and 5.x (the
    format-stability gate re-encodes the committed golden snapshot and
    compares bytes). *)

val decode : string -> (t, error) result

val save : t -> string -> unit
val load : string -> (t, error) result

val describe : t -> string
(** Human-readable summary for [facechange snapshot --describe]. *)
