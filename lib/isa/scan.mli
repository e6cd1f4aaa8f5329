(** Function-boundary discovery by prologue-signature scanning.

    Kernel code recovery must turn a faulting instruction pointer into the
    containing function's [[start, end)] range by searching "backwards and
    forwards" for the [push ebp; mov ebp, esp] header signature
    (§III-B1).  Candidate addresses are restricted to the function
    alignment (the kernel is compiled with [-falign-functions]), which is
    what makes the signature reliable; the scan transparently crosses page
    boundaries via the caller-supplied [read] (the paper's "one single
    instruction may split across pages" case). *)

(** {2 Block-terminator classification}

    Superblock construction (decode-once basic blocks, see DESIGN.md §10)
    needs to know, per instruction, whether control can leave the
    straight-line sequence and — when the successor is static — where it
    goes, the target a packed jump or call op carries. *)

type boundary =
  | B_seq  (** control always falls through to [pc + len] *)
  | B_cond of int
      (** conditional branch: the {e taken} target; falls through otherwise *)
  | B_jump of int  (** unconditional direct jump: the static successor *)
  | B_call of int
      (** direct call: the static successor (the callee's entry) *)
  | B_call_dynamic  (** indirect call: successor known only at run time *)
  | B_return  (** ret/iret: successor popped from the stack *)
  | B_stop
      (** execution leaves the CPU loop entirely (ud2 traps, yield blocks) *)

val boundary : Insn.t -> pc:int -> len:int -> boundary
(** Classify the instruction at [pc] (of byte length [len]) by how it ends
    — or does not end — a basic block.  Relative targets are resolved
    against [pc + len], matching the CPU's execution semantics. *)

val ends_block : Insn.t -> bool
(** True iff the instruction unconditionally terminates a basic block
    ([B_cond] does {e not}: the fall-through path continues in-block). *)

(** {2 Prologue scanning} *)

val is_prologue_at : read:(int -> int option) -> int -> bool
(** True iff the three signature bytes [0x55 0x89 0xe5] are readable at the
    given address. *)

val search_backward :
  read:(int -> int option) -> ?align:int -> limit:int -> int -> int option
(** [search_backward ~read ~limit addr] finds the greatest aligned address
    [a <= addr] with [a >= limit] carrying the prologue signature — the
    start of the function containing [addr]. *)

val search_forward :
  read:(int -> int option) -> ?align:int -> limit:int -> int -> int option
(** [search_forward ~read ~limit addr] finds the least aligned address
    [a > addr] with [a < limit] carrying the prologue signature — the start
    of the next function, i.e. the (padded) end of the current one. *)

val function_bounds :
  read:(int -> int option) ->
  ?align:int ->
  lo:int ->
  hi:int ->
  int ->
  (int * int) option
(** [function_bounds ~read ~lo ~hi addr] = [(start, stop)] where [start] is
    the containing function's prologue and [stop] is the next prologue (or
    [hi] when [addr] lies in the last function of the region). *)
