(** Host physical memory: a growable pool of 4 KiB frames.

    Both the guest's "real" memory and every materialized kernel view live
    here.  A host physical address is [frame * page_size + offset].  Frames
    freed when a kernel view is unloaded (§III-B4, "hot-plugging" views)
    are recycled. *)

type t

val page_size : int
(** 4096. *)

type spare
(** A store of spare 4 KiB frame buffers: {!reclaim} fills it, and the
    pools created over it take from it before allocating.  A plain
    value, owned by whoever made it and used by one domain at a time. *)

val spare : unit -> spare
(** An empty store. *)

val spare_frames : spare -> int
(** How many buffers the store holds. *)

val create : ?metrics:Fc_obs.Metrics.t -> ?spare:spare -> unit -> t
(** When a registry is given, allocation/free counters
    ([mem.frames_allocated], [mem.frames_freed]) and a [mem.live_frames]
    gauge are registered on it.  With a [spare] store, {!alloc} and
    {!import} take their buffers from it while it has any, and
    {!reclaim} returns them to it. *)

val alloc : t -> int
(** Allocate a zeroed frame; returns its frame number.  A buffer taken
    from the store is zero-filled first, so it reads exactly as a new
    one. *)

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
    and must keep version-keyed caches coherent.  The bytes may have
    changed, so the frame's {!digest} is invalidated.  The frame must be
    live and in range (unchecked; hot path). *)

val bump : t -> int -> unit
(** Bump the version of a live frame whose bytes did not change — a
    mapping through the frame changed (a kernel view spliced another
    frame over it), so translations cached through it must die.  Like
    {!touch} it kills every version-keyed entry, but a {!digest} valid
    before the bump stays valid.  The frame must be live and in range
    (unchecked). *)

(** {1 Content digests}

    Each frame carries the MD5 of its bytes together with the version it
    is valid at, so the bytes are hashed at most once per version, and
    not at all when a writer already knows what it wrote. *)

val digest : t -> int -> Digest.t
(** The MD5 of a live frame's 4 KiB ([Digest.bytes] of its bytes):
    the recorded one while the frame's version has not moved since it was
    recorded, else hashed now and recorded.  The only place a frame is
    hashed.
    @raise Invalid_argument if the frame is not live. *)

val set_digest : t -> int -> Digest.t -> unit
(** Record the MD5 of a live frame's current bytes, known to the writer
    that just wrote them (boot code pages from the kernel image, view
    pages from their frame-cache key).  The caller vouches for it: a
    wrong digest is served by {!digest} until the next write.
    @raise Invalid_argument if the frame is not live. *)

val digests_computed : t -> int
(** How many times {!digest} has hashed a frame since the pool was
    created — a plain accessor, not a registered metric. *)

val frame_count : t -> int
(** The allocation high-water mark: every frame number ever handed out is
    below it.  With {!versions_snapshot}, the dirty-page tracker's whole
    interface: a page is dirty between two instants iff its version moved. *)

val versions_snapshot : t -> int array
(** A copy of the per-frame version counters for frames
    [[0, frame_count))].  Allocation bumps the version too, so a
    frame freed and re-allocated between two snapshots still reads as
    dirty — exactly what pre-copy migration needs. *)

(** {1 Reclaim} *)

val reclaim : t -> unit
(** Kill every frame at once, without counting frees or firing the
    release hook, and return each live frame's buffer to the pool's
    store (if it has one).  Afterwards every frame is dead, so any
    access to one raises [Invalid_argument] as an access to a freed
    frame does, and the pool no longer takes from or returns to the
    store.  The owner must first drop whatever it cached from
    {!frame_bytes} (the OS invalidates every TLB). *)

(** {1 Snapshot state}

    The pool's complete state as plain data.  [export] deep-copies the
    live frame contents; [import] rebuilds them into a {e freshly
    created} pool (so the metrics registry hooks from {!create} stay
    wired).  Dead-frame versions are preserved: version counters feed
    version-keyed caches, and the post-restore allocation stream must
    continue where the snapshot left off.  Each live frame carries its
    {!digest} when one is known: [export] passes on a digest valid at
    the frame's version without hashing, the snapshot decoder the one it
    has just verified, and [import] records it, so a restored pool
    hashes no frame a cold one would not. *)

type frozen_frame = {
  zl_frame : int;
  zl_refcount : int;
  zl_bytes : Bytes.t;  (** the frame's 4 KiB *)
  zl_digest : Digest.t option;
      (** the MD5 of [zl_bytes] when known; [import] trusts it as
          {!set_digest} does *)
}

type frozen = {
  z_next : int;
  z_free_list : int list;
  z_versions : int array;
  z_live : frozen_frame list;  (** ascending frame numbers *)
}

val export : t -> frozen

val import : t -> frozen -> unit
(** @raise Invalid_argument if the pool has ever allocated, or a live
    frame is out of range or not one page long. *)

val frame_bytes : t -> int -> Bytes.t
(** The live storage of a frame.  The returned buffer is the frame itself,
    not a copy: writes through it are visible to every reader, but bypass
    version accounting — pair them with {!touch}.  The buffer becomes
    stale if the frame is freed and reallocated; any such reallocation
    bumps the frame's {!version}, so holding a version snapshot is enough
    to detect staleness.  After {!reclaim} the buffer belongs to the
    store, and from there to another pool: it is stale, and no version
    check can tell, so everything holding it must be dropped first.
    @raise Invalid_argument if the frame is not live. *)
