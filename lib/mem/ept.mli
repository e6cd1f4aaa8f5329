(** Extended Page Tables: guest-physical → host-physical, two levels.

    The structure mirrors what FACE-CHANGE manipulates on real hardware: a
    page {e directory} whose entries each point to a page {e table} mapping
    a 4 MiB-aligned slice of guest-physical space (1024 × 4 KiB pages) to
    host frames.  Kernel view switching (§III-B2, steps 3A/3B) does not
    remap individual pages — it swaps {e directory entries} so that the
    guest-physical pages holding kernel code resolve to the view's frames
    instead of the original ones.  [install_dir] is therefore the unit of
    switching cost.

    Page tables are first-class ({!table}) so that every kernel view can
    pre-build its tables once at load time and switching is pointer
    assignment, exactly as in the paper.

    {1 View-tagged translation validity}

    Cached translations (software TLB entries, superblock stamps) are
    validated against a packed {e (era, view, generation)} tag,
    mirroring hardware VPID/PCID:

    - every kernel view gets a compact id; view 0 is the full/original
      kernel view;
    - each view carries its own generation counter, bumped when that
      view's cached translations must die ({!bump_view});
    - the {e active tag} packs the era, the active view id and that
      view's current generation into one int.

    A cached entry is valid iff its fill-time tag equals the active tag —
    one integer compare.  Switching between two already-seen views only
    changes the active tag ({!set_view} + {!install_dir}); nothing is
    flushed, and translations cached under the re-entered view revalidate
    by comparison.  Retiring one view bumps only that view's generation,
    so other views' cached translations survive.

    Generation wraparound: when a view's generation would exceed
    [2^gen_bits - 1] the {e era} is bumped instead and every per-view
    generation resets to 0 — tags minted in any earlier era can never
    compare equal again, making overflow safe at O(1) amortized cost. *)

val entries_per_table : int
(** 1024. *)

val dir_span_pages : int
(** Guest-physical pages covered by one directory entry (1024). *)

type table

val table_create : unit -> table
val table_copy : table -> table

val table_set : table -> idx:int -> int option -> unit
(** Map table slot [idx] to a host frame, or unmap with [None].

    {b Invariant}: [idx] must lie in [0, entries_per_table).  Callers
    derive it from {!slot_of_page} on a non-negative page number, which
    guarantees the range, so no explicit check is performed beyond the
    array access itself — this is on the per-instruction translation
    path. *)

val table_get : table -> idx:int -> int option
(** Same index invariant as {!table_set}. *)

type t

val create : unit -> t
(** Active view 0, era 0, every generation 0. *)

val gen_bits : int
(** Generation field width of the packed tag (20). *)

val view_bits : int
(** View-id field width of the packed tag (20). *)

val max_view : int
(** Largest representable view id, [2^view_bits - 1]. *)

val tag : t -> int
(** The active packed [(era, view, generation)] tag.  Consumers stamp
    cached translations with this value at fill time and treat any later
    mismatch as a miss.  Strictly non-negative. *)

val gen : t -> view:int -> int
(** Current generation of [view] (0 if never bumped this era). *)

val flushes : t -> int
(** Number of invalidation events ever applied: every generation bump
    ({!bump_view}) plus every {!flush_all}. *)

val set_view : t -> view:int -> unit
(** Make [view] the active view.  {b Flushes nothing} — translations
    cached under the new view in an earlier activation revalidate by tag
    compare.  Callers are responsible for also pointing the directory at
    the view's tables ({!install_dir}).
    @raise Invalid_argument if [view] is outside [[0, max_view]]. *)

val bump_view : t -> view:int -> unit
(** Bump [view]'s generation (whether or not it is active), invalidating
    every translation cached under it; other views are untouched.  Used
    to retire a destroyed view (unload, disable, quarantine): view ids
    are never reused by the hypervisor, so a retired tag can never be
    minted again. *)

val flush_all : t -> unit
(** Drop every cached translation for {e all} views by bumping the era:
    any tag minted before this call mismatches forever.  The
    belt-and-braces big hammer; per-view bumps are the normal path. *)

val install_dir : t -> dir:int -> table option -> unit
(** Point directory entry [dir] at a (possibly shared) page table, or
    clear it with [None].  {b Quiet}: no generation moves.  The view
    switch path — combined with {!set_view}, switching to an
    already-seen view flushes nothing because its cached translations
    carry the view's own still-current tag. *)

val get_dir : t -> dir:int -> table option

val install_page : t -> gpa_page:int -> hpa_frame:int -> unit
(** Single-page mapping; allocates the directory's table if absent.
    {b Quiet}: no generation moves, so it is sound only for mapping a
    {e previously unmapped} page — consumers never cache negative
    translations, so nothing stale can exist for it.  The guest-RAM
    growth path. *)

val translate_page : t -> int -> int option
(** [translate_page t gpa_page] — host frame number. *)

val translate : t -> int -> int option
(** [translate t gpa] — host physical {e address}; [None] = EPT violation. *)

val dir_of_page : int -> int
val slot_of_page : int -> int
(** Decompose a guest-physical page number into (directory, table slot). *)

(** {1 Snapshot support}

    Tables are shared {e by reference} — one leaf table can sit behind
    several vCPUs' directories, the hypervisor's original-table map and
    a view's table list at once.  The snapshot layer therefore walks
    every holder, assigns each distinct table an identity-based id, and
    serializes the sparse contents once; these helpers are that walk's
    vocabulary. *)

val dirs : t -> (int * table) list
(** Every (directory, table) pair, sorted by directory.  The tables are
    the live structures, not copies. *)

val table_entries : table -> (int * int) list
(** The mapped (slot, frame) pairs, in slot order. *)

val table_of_entries : (int * int) list -> table
(** Rebuild a table from its sparse entries.
    @raise Invalid_argument on a slot outside [[0, entries_per_table)]. *)

type tags = {
  zt_view : int;
  zt_era : int;
  zt_flushes : int;
  zt_gens : (int * int) list;  (** (view id, generation), sorted by view *)
}
(** Frozen tag state, serialized by the snapshot codec so restored
    guests keep their per-view generations (and flush gauge) instead of
    restarting every counter at zero. *)

val freeze_tags : t -> tags
val restore_tags : t -> tags -> unit
(** Overwrites the live tag state (view, era, generations, flush count)
    and recomputes the active tag.  Directory contents are untouched —
    the snapshot layer installs those separately via {!install_dir}. *)
