(** Host physical memory: a growable pool of 4 KiB frames.

    Both the guest's "real" memory and every materialized kernel view live
    here.  A host physical address is [frame * page_size + offset].  Frames
    freed when a kernel view is unloaded (§III-B4, "hot-plugging" views)
    are recycled. *)

type t

val page_size : int
(** 4096. *)

val create : ?metrics:Fc_obs.Metrics.t -> unit -> t
(** When a registry is given, allocation/free counters
    ([mem.frames_allocated], [mem.frames_freed]) and a [mem.live_frames]
    gauge are registered on it. *)

val alloc : t -> int
(** Allocate a zeroed frame; returns its frame number. *)

val alloc_n : t -> int -> int list
(** [n] fresh frames, in ascending allocation order. *)

val free : t -> int -> unit
(** Drop one reference to a frame; the frame returns to the pool when the
    last reference is dropped (frames start at refcount 1, see
    {!incref}).  Freeing an unallocated frame raises [Invalid_argument]. *)

val set_release_hook : t -> (int -> unit) option -> unit
(** Install (or clear) a callback fired with the frame number whenever a
    frame's {e last} reference is dropped by {!free}.  Caches keyed by
    frame number — the OS's per-frame lines — use it to evict
    entries for dead frames instead of accumulating them until the number
    is recycled.  The hook runs after the frame is already off the live
    set ({!is_live} is false inside it). *)

val incref : t -> int -> unit
(** Add a reference to a live frame — how kernel views share identical
    page contents.  Each reference is released with {!free}. *)

val refcount : t -> int -> int
(** Current reference count ([0] for a frame that is not live).  A view
    page whose frame has refcount [> 1] is shared and must be copied
    before its first write (copy-on-write). *)

val is_live : t -> int -> bool
val live_frames : t -> int
(** Number of currently allocated frames. *)

val read_byte : t -> int -> int
(** [read_byte t hpa] — the byte at host physical address [hpa].
    @raise Invalid_argument if the frame is not live. *)

val write_byte : t -> int -> int -> unit

val read_u32 : t -> int -> int
(** Little-endian 32-bit read (used for stack slots: saved ebp and return
    addresses). *)

val write_u32 : t -> int -> int -> unit

val fill : t -> addr:int -> len:int -> pattern:int list -> unit
(** Tile [pattern] over [[addr, addr+len)] — e.g. UD2-filling a view page
    with [pattern = [0x0f; 0x0b]].  The pattern restarts at [addr], so a
    2-byte pattern keeps its phase with respect to [addr].

    [fill], {!blit_bytes} and {!copy} are bulk writes: they work one
    frame at a time and advance each frame's {!version} by the number of
    bytes written into it — the same bytes and versions a {!write_byte}
    loop over the range leaves.  A dead target (or source) frame raises
    [Invalid_argument] after the frames before it have been written, as
    that loop would. *)

val blit_bytes : t -> src:Bytes.t -> src_off:int -> dst:int -> len:int -> unit
(** Copy from an OCaml buffer into physical memory (a bulk write). *)

val copy : t -> src:int -> dst:int -> len:int -> unit
(** Physical-to-physical copy (copy-on-write: shared frame → private
    frame), frame to frame with no intermediate buffer.  The two ranges
    must not overlap. *)

val frame_of_addr : int -> int
val offset_of_addr : int -> int
val addr_of_frame : int -> int

val version : t -> int -> int
(** A counter bumped on every byte written into the frame (and on
    reallocation): a bulk write of [n] bytes into a frame advances it by
    [n].  Decoded-instruction caches key their entries on (frame,
    version) so that code patched by recovery or module loading is never
    stale. *)

val touch : t -> int -> unit
(** Bump the version of a live frame without writing — used by word-level
    writers that mutate the frame's storage directly (via {!frame_bytes})
    and must keep version-keyed caches coherent.  The frame must be live
    and in range (unchecked; hot path). *)

val frame_count : t -> int
(** The allocation high-water mark: every frame number ever handed out is
    below it.  With {!versions_snapshot}, the dirty-page tracker's whole
    interface: a page is dirty between two instants iff its version moved. *)

val versions_snapshot : t -> int array
(** A copy of the per-frame version counters for frames
    [[0, frame_count))].  Allocation bumps the version too, so a
    frame freed and re-allocated between two snapshots still reads as
    dirty — exactly what pre-copy migration needs. *)

(** {1 Snapshot state}

    The pool's complete state as plain data.  [export] deep-copies the
    live frame contents; [import] rebuilds them into a {e freshly
    created} pool (so the metrics registry hooks from {!create} stay
    wired).  Dead-frame versions are preserved: version counters feed
    version-keyed caches, and the post-restore allocation stream must
    continue where the snapshot left off. *)

type frozen = {
  z_next : int;
  z_free_list : int list;
  z_versions : int array;
  z_live : (int * int * Bytes.t) list;  (** (frame, refcount, contents) *)
}

val export : t -> frozen

val import : t -> frozen -> unit
(** @raise Invalid_argument if the pool has ever allocated. *)

val frame_bytes : t -> int -> Bytes.t
(** The live storage of a frame.  The returned buffer is the frame itself,
    not a copy: writes through it are visible to every reader, but bypass
    version accounting — pair them with {!touch}.  The buffer becomes
    stale if the frame is freed and reallocated; any such reallocation
    bumps the frame's {!version}, so holding a version snapshot is enough
    to detect staleness.
    @raise Invalid_argument if the frame is not live. *)
