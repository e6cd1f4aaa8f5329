(** Symbolization of guest code addresses for human-readable logs.

    The recovery and provenance logs print frames as
    ["0xc021a526 <do_sys_poll+0x136>"].  Addresses in {e unregistered}
    regions print as ["<UNKNOWN>"] — exactly how a hidden rootkit module
    (removed from the guest module list) shows up in Fig. 5.  As the paper
    notes, symbols are a demonstration aid; backtracking itself never
    needs them. *)

type t

val create : Image.t -> t
(** The base kernel's function symbols (System.map): the image's own
    sorted function array ({!Image.sorted_functions}), not a copy. *)

val add_unit : t -> Fc_isa.Asm.unit_image -> unit
(** Register the functions of an assembled module.  Nothing is ever
    removed: a table that must forget a module (a rootkit hiding itself)
    is rebuilt without it. *)

val find : t -> int -> (string * int) option
(** [find t addr] — (symbol, offset) of the containing function; the
    newest unit registered wins an overlap. *)

val render : t -> int -> string
(** ["0xc021a526 <do_sys_poll+0x136>"], offset omitted when zero;
    ["0xf8078bbe <UNKNOWN>"] for unregistered addresses. *)

val pp : t -> Format.formatter -> int -> unit
