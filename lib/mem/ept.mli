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

    Cached translations (software TLB entries) carry the view id they
    were filled under, mirroring hardware VPID: view 0 is the
    full/original kernel view, and every other view gets an id minted
    once per machine and never reused ([Os.fresh_view_id]).  An entry is
    valid iff its tag equals the active view id — one integer compare.
    Switching between two already-seen views only changes the active id
    ({!set_view} + {!install_dir}); nothing is flushed, and translations
    cached under the re-entered view revalidate by comparison.  A
    retired view's id is never active again, so its entries can never
    match and retiring it needs no invalidation. *)

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
(** Active view 0, no directories. *)

val tag : t -> int
(** The active view id.  Consumers stamp cached translations with this
    value at fill time and treat any later mismatch as a miss.  Strictly
    non-negative. *)

val set_view : t -> view:int -> unit
(** Make [view] the active view.  {b Flushes nothing} — translations
    cached under the new view in an earlier activation revalidate by tag
    compare.  Callers are responsible for also pointing the directory at
    the view's tables ({!install_dir}).
    @raise Invalid_argument if [view] is negative. *)

val install_dir : t -> dir:int -> table option -> unit
(** Point directory entry [dir] at a (possibly shared) page table, or
    clear it with [None].  {b Quiet}: no tag moves.  The view switch
    path — combined with {!set_view}, switching to an already-seen view
    flushes nothing because its cached translations carry the view's own
    id. *)

val get_dir : t -> dir:int -> table option

val install_page : t -> gpa_page:int -> hpa_frame:int -> unit
(** Single-page mapping; allocates the directory's table if absent.
    {b Quiet}: no tag moves, so it is sound only for mapping a
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
