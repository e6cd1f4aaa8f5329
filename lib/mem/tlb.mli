(** Direct-mapped software TLB.

    Real hardware hides the cost of page walks behind a TLB; the emulated
    fetch/decode loop pays that cost on every access unless we do the
    same.  An entry caches one guest-virtual page's translation —
    [gva_page → (host frame, frame version, frame storage)] — plus a
    caller-chosen payload (the fetch path stores the frame's line there:
    its superblocks by start offset, so the common case of a block
    lookup is a single array load + three integer compares).

    Validity is decided entirely by the {e caller}, by comparing the
    entry's fields against current truth:

    - [tag = page] — the slot actually holds this page (direct-mapped
      conflicts just overwrite each other);
    - [stamp = <current validity stamp>] (fetch path only) — the view
      the entry was filled under is the active one.  The fetch path
      uses {!Ept.tag}, the active view id: a kernel-view switch changes
      the id rather than flushing, and a re-entered view's entries
      revalidate by compare, mirroring VPID.  The data path needs no
      stamp: guest RAM mappings are add-only, so a slot holding its
      page is valid.
    - [version = Phys_mem.version frame] (fetch path only) — no write to
      the backing frame since fill, which keeps copy-on-write breaks and
      lazy recovery writes coherent with {e zero} eager flushing, and
      doubles as a liveness proof for [bytes] (frame reallocation bumps
      the version).

    There is no negative caching: unmapped pages are re-walked every
    time, so a page mapped after a miss is seen immediately. *)

type 'a entry = {
  mutable tag : int;      (** guest-virtual page number; [-1] = empty *)
  mutable stamp : int;    (** caller-defined validity stamp at fill time
                              (fetch: {!Ept.tag}; data: unused, 0) *)
  mutable frame : int;    (** host frame backing the page *)
  mutable version : int;  (** {!Phys_mem.version} of [frame] at fill time *)
  mutable bytes : Bytes.t;  (** the frame's live storage *)
  mutable payload : 'a;   (** caller data riding along (e.g. the frame's line) *)
}

type 'a t

val no_tag : int
(** The empty-slot tag ([-1]); never a valid page number. *)

val create : ?bits:int -> payload:'a -> unit -> 'a t
(** A TLB with [2^bits] entries (default 64).  [payload] seeds empty
    entries; it is never read through a valid hit, only overwritten by
    {!fill}. *)

val size : 'a t -> int

val slot : 'a t -> int -> 'a entry
(** [slot t page] — the (unique) entry that may hold [page]'s
    translation.  O(1), allocation-free.  The caller checks validity and
    either uses the entry or {!fill}s it. *)

val null : 'a t -> 'a entry
(** A permanently-invalid entry ([tag = -1]) miss paths can return so
    callers test [e.tag = page] instead of allocating an option. *)

val fill :
  'a entry -> tag:int -> stamp:int -> frame:int -> version:int ->
  bytes:Bytes.t -> payload:'a -> unit

val invalidate_all : 'a t -> unit
(** Drop every entry.  A last-resort reset (a reclaimed machine's
    storage goes to another guest): stamp and version mismatches are
    the normal invalidation mechanism, and a retired view's entries die
    by never matching the active view id again. *)
