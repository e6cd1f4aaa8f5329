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

    An image's code is immutable once built.  Its one mutable part is
    the memo of decoded superblock bodies ({!body}), and guests on
    several domains share one image safely: the memo only grows, each
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

val placed_at : t -> int -> Fc_isa.Asm.placed option
(** The base-kernel function containing the address, if any. *)

val functions : t -> Fc_isa.Asm.placed list

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

val body :
  t ->
  pc:int ->
  page:Digest.t ->
  (unit -> Fc_isa.Block.body option) ->
  Fc_isa.Block.body option
(** [body t ~pc ~page decode] is the superblock body starting at [pc]
    in a page whose bytes have MD5 [page]: the one already published for
    that key, or else [decode ()]'s, which is published.  [decode] must
    decode the block at [pc] from those bytes with no trap stops
    ({!Fc_isa.Block.decode}), so every guest of the image gets the same
    body for the same key; a [None] is not remembered. *)

val decoded_blocks : t -> int
(** The number of bodies published so far. *)

val false_prologues : t -> int list
(** Alignment-boundary addresses inside the text section that carry the
    prologue signature but are {e not} function starts — must be empty for
    boundary scanning to be sound; checked by the test suite. *)
