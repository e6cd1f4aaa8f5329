(** Superblock bodies: one basic block decoded once into packed words.

    A body is the immutable, guest-independent half of a superblock (the
    per-guest half — start pc and trap generation — is
    [Fc_machine.Cpu.sblock]).  It is a pure function of the
    block's start pc and the bytes of the page it lies in, so guests of
    one kernel image share bodies through a memo keyed by page content
    ([Fc_kernel.Image.page], [Fc_kernel.Image.body]) and each block is
    decoded at most once per image (DESIGN.md §10).

    {2 The packed word}

    Each op is one immediate int, so a body costs one word per op:

    {v
    bits  0..3   op          (the constructor index of {!op}: Step = 0 ... Ud2 = 10)
    bits  4..6   len         byte length of the instruction (1..5)
    bits  7..13  run         length of the run of consecutive Step ops
                             starting here (0 when this op is not a Step)
    bits 14..22  run_bytes   byte span of that run
    bits 23..62  arg         signed: the target of Jcc (taken), Jmp and
                             Call, the id of Yield, 0 otherwise
    v}

    The layout is part of this interface: [Cpu.run] dispatches on the op
    bits and reads the other fields inline rather than through the
    accessors below.  Instruction pcs are not stored: op [i]'s pc is the
    block's start plus the lengths of ops [0 .. i-1]. *)

type op =
  | Step  (** Nop, Alu, Or_mem, Int_sw: advance eip only *)
  | Push_ebp
  | Mov_ebp_esp
  | Leave
  | Jcc  (** falls through in-block; the taken target exits *)
  | Jmp  (** ends the block *)
  | Call  (** ends the block *)
  | Call_ind
  | Ret  (** ret and iret: identical semantics at this modelling level *)
  | Yield
  | Ud2

val op : int -> op
val len : int -> int
val run : int -> int
val run_bytes : int -> int
val arg : int -> int

type body = private {
  words : int array;  (** one packed word per op, in execution order *)
  lo : int;
  hi : int;
      (** the block's interior: [lo] is the pc of op 1 and [hi] the pc
          of the last op, so [lo > hi] for a one-op block.  A trap
          address in [[lo, hi]] may split the block; one outside it
          cannot. *)
}

val empty : body
(** The body of no ops, for placeholder blocks that never execute. *)

val decode :
  read:(int -> int option) -> last:int -> stop:(int -> bool) -> int -> body option
(** [decode ~read ~last ~stop pc] decodes the basic block starting at
    [pc], reading bytes through [read].  The block ends before an
    instruction that would start past [last] (the caller's page-tail
    bound, so no op straddles a page), after its 64th op, before any
    address where [stop] holds — the entry [pc] included — and before
    undecodable bytes; it ends after an unconditional terminator
    (jump, call, indirect call, ret, yield, ud2).  A conditional jump
    continues in-block.  [None] when the block would hold no op.

    With [stop] the trap set this gives the trap-split block a guest
    executes.  With no stops it gives the body the image memo shares:
    as long as no stop lies in that body's interior [[lo, hi]] and [pc]
    is not a stop, the two are equal — a stop can only cut a body at an
    op boundary, and then the result is the prefix ending just before
    the stop. *)
