(** The assembled base kernel image and module assembly.

    [build ()] compiles the whole {!Catalog} base-kernel function list to
    bytes at {!Layout.text_base}, and every {!Catalog.module_functions}
    module at its boot base — the bases a fresh guest loads them at, in
    catalog order from {!Layout.module_area_base} by
    {!next_module_base}.  Other modules, or modules at another base, are
    assembled on demand ([assemble_module]), resolving their calls into
    the base kernel — this is why the profiler records module ranges
    relative to the module base: the same module assembled at a
    different base yields different absolute call displacements but
    identical structure.

    An image's code is immutable once built, and so is the MD5 of each
    code page as boot leaves it ({!boot_digests}), hashed once here so
    that no guest hashes it again.  Its mutable part is two memos: the
    decoded superblock bodies of each page content ({!page}, {!body}),
    and the MD5 of each view page by its inputs ({!view_page}).  Guests
    on several domains share one image safely: the memos only grow, each
    entry is a pure function of its key, and entries are published by
    compare-and-set on an immutable map. *)

type t

val build : unit -> (t, string) result
val build_exn : unit -> t

val unit_image : t -> Fc_isa.Asm.unit_image
val text_base : t -> int
val text_end : t -> int
(** One past the last byte of base kernel code. *)

val code_dirs : t -> int list
(** The EPT directories holding kernel code — base text, then the module
    area — in sweep order, each once.  Views put this order on the wire
    ([View.frozen.zv_tables]). *)

val addr_of : t -> string -> int option
(** Address of a base-kernel function. *)

val addr_of_exn : t -> string -> int

val functions : t -> Fc_isa.Asm.placed list

val sorted_functions : t -> Fc_isa.Asm.placed array
(** The base-kernel functions sorted by address, built once per image:
    {!Symbols.create} searches this very array, so every guest's
    symbol table shares it.  Read it, never write it. *)

val read_byte : t -> int -> int option
(** Read a byte of base kernel code by guest-virtual address. *)

val next_module_base : Fc_isa.Asm.unit_image -> int
(** The base of the module loaded after [u]: the first page boundary
    past its code, plus one guard page.  The one placement rule, shared
    by boot-time and runtime module loading. *)

val boot_modules : t -> (string * Fc_isa.Asm.unit_image) list
(** Every {!Catalog.module_functions} module, assembled at its boot base,
    in load order. *)

val assemble_module :
  t -> name:string -> base:int -> (Fc_isa.Asm.unit_image, string) result
(** One of {!Catalog.module_functions} at [base], resolving unresolved
    calls against the base kernel symbol table: the unit from
    {!boot_modules} itself when [base] is its boot base, a fresh
    assembly otherwise. *)

val assemble_module_fns :
  t -> base:int -> Kfunc.t list -> (Fc_isa.Asm.unit_image, string) result
(** Assemble any function list at [base] (always a fresh assembly). *)

val boot_digests : t -> (int * Digest.t) list
(** Each page that boot copies code into, by its guest-virtual base
    address, in address order, with the MD5 of that page as boot leaves
    it: a zeroed page with the base text, or a boot module's code, copied
    in.  [Os.create] records them on the frames it boots, so no guest
    hashes a boot code page. *)

type page
(** The bodies decoded from one page content, by start pc. *)

val page : t -> Digest.t -> page
(** The bodies of the page whose bytes have MD5 [digest] (empty at
    first).  A frame's line resolves it once, at its first block
    build. *)

val body : page -> pc:int -> (unit -> Fc_isa.Block.body option) -> Fc_isa.Block.body option
(** [body page ~pc decode] is the superblock body starting at [pc] in
    the page: the one already published for [pc], or else [decode ()]'s,
    which is published.  [decode] must decode the block at [pc] from the
    page's bytes with no trap stops ({!Fc_isa.Block.decode}), so every
    guest of the image gets the same body for the same key; a [None] is
    not remembered. *)

val view_page :
  t -> original:Digest.t -> spans:(int * int) list -> (unit -> Digest.t) -> Digest.t
(** [view_page t ~original ~spans hash] is the MD5 of the kernel-view page
    made of UD2 fill with [spans] (page offsets [[lo, hi)], ascending)
    loaded from an original page whose bytes have MD5 [original]: the one
    already published for that key, or else [hash ()], which is
    published.  Those inputs fix the page's bytes, so [hash] must hash
    exactly them. *)

val decoded_blocks : t -> int
(** The number of bodies published so far, over all pages. *)

val decoded_pages : t -> int
(** The number of page contents the body memo holds (each resolved by
    {!page}). *)

val view_pages : t -> int
(** The number of view-page digests published so far. *)

val false_prologues : t -> int list
(** Alignment-boundary addresses inside the text section that carry the
    prologue signature but are {e not} function starts — must be empty for
    boundary scanning to be sound; checked by the test suite. *)
