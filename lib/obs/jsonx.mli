(** A zero-dependency JSON value type with a hand-rolled serializer and
    parser — enough for the trace/metrics exporters, the bench artifact,
    and the CI drift checker, without pulling a JSON library into the
    toolchain.

    Serialization always yields valid JSON: strings are escaped, and
    non-finite floats (NaN, infinities) — which have no JSON spelling —
    are emitted as [null], so an empty-run division can never produce a
    malformed artifact. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents with two spaces. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; the error carries a character
    offset.  Numbers without [.], [e] or [E] that fit in [int] parse as
    [Int]; everything else as [Float].  Total: malformed input, including
    a [\u] escape without exactly four hex digits or a high surrogate not
    followed by a low one, is an [Error], never an exception. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an [Obj]. *)

val path : t -> string list -> t option
(** [path j ["a"; "b"]] = [member "b" (member "a" j)]. *)

val to_int : t -> int option
(** [Int], or a [Float] with integral value. *)

val to_float : t -> float option
val to_bool : t -> bool option
val to_str : t -> string option
