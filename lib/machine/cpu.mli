(** The virtual CPU: a fetch/decode/execute loop over guest-translated
    memory.

    The CPU executes kernel paths only (user-mode execution is modelled by
    the OS as a cycle cost).  It maintains the three registers the paper's
    recovery mechanism reads — [eip], [ebp], [esp] — and materializes real
    stack frames in guest memory: [call] pushes a return address,
    [push ebp; mov ebp, esp] links the frame chain, so the hypervisor's
    rbp-chain backtrace works exactly as in Algorithm 1.

    Every exit condition becomes an {!exit_reason} handed back to the OS,
    which routes hypervisor-relevant ones (breakpoints, invalid opcodes)
    to the registered VM-exit handler. *)

type regs = { mutable eip : int; mutable ebp : int; mutable esp : int }

val copy_regs : regs -> regs

val sentinel_return : int
(** The pseudo return address marking "return to user mode" (0). *)

type fault =
  | Unmapped_code of int     (** fetch from an unmapped page (EPT violation) *)
  | Unmapped_data of int     (** stack access to an unmapped page *)
  | Dispatch_underflow of int
      (** an indirect-call site fired with an empty dispatch queue *)
  | Runaway
      (** instruction budget exhausted — e.g. execution fell into UD2
          fill at an odd offset and walked it as valid [Or_mem]s *)

type exit_reason =
  | Breakpoint of int
      (** [eip] reached a hypervisor trap address (checked {e before}
          executing the instruction); resume with [skip_bp = Some addr] *)
  | Invalid_opcode
      (** UD2 or an undecodable byte at [eip]; [eip] unchanged *)
  | Blocked of int  (** a [Yield id] executed; [eip] already advanced *)
  | Returned        (** the outermost frame returned to the sentinel *)
  | Fault of fault

val pp_exit : Format.formatter -> exit_reason -> unit

type decode_result =
  | D_ok of Fc_isa.Insn.t * int
  | D_invalid   (** undecodable bytes at the address *)
  | D_unmapped  (** the address does not translate (EPT violation) *)

val decoder_of_fetch : (int -> int option) -> int -> decode_result
(** Straightforward decoder over a byte reader (no caching). *)

type event =
  | Ev_call of int  (** a call executed; the target address *)
  | Ev_return       (** a ret/iret executed (excluding the final return to
                        user mode) *)

(** {2 Superblocks}

    A superblock is one basic block decoded {e once} and executed
    straight-line: the trap probe runs only at block entry, never between
    ops.  It has two halves.  Its {e body} ({!Fc_isa.Block.body}) holds
    the decoded ops, packed one word per op — no per-instruction
    closures, no re-decoding — and is immutable and shared: guests of one
    kernel image build their blocks from the same body when the page
    bytes and start pc agree.  The {e per-guest state} below is the start
    pc and the trap generation the body was checked under.  The owner
    (the OS) keeps each block on the line of the host frame it was
    decoded from, at its start offset, and guarantees the safety
    invariants that make entry-only checking sound: every instruction of
    a block lies within one host frame, no instruction at index [>= 1]
    is a trap address, and a block is found only through a translation
    that is current for its frame's bytes (see DESIGN.md §10). *)

type sblock = {
  sb_start : int;
      (** address of the first instruction; a frame can back several
          guest pages, so a block found at a frame offset is used only
          for this very pc *)
  sb_body : Fc_isa.Block.body;
      (** the decoded ops; op pcs follow from [sb_start] and the op
          lengths *)
  mutable sb_trap_gen : int;
      (** trap-set generation last validated under; the owner restamps it
          when a trap-set change left the block's interior trap-free *)
}

val run :
  decode:(int -> decode_result) ->
  read_u32:(int -> int option) ->
  write_u32:(int -> int -> unit) ->
  is_trap:(int -> bool) ->
  trace:(int -> int -> unit) option ->
  ?cover:(int -> int -> unit) ->
  ?events:(event -> unit) ->
  ?branch:(int -> bool) ->
  cycles:int ref ->
  ?instrs:int ref ->
  dispatch:int Queue.t ->
  ?skip_bp:int ->
  ?sblocks:(int -> sblock option) ->
  ?max_instr:int ->
  regs ->
  exit_reason
(** Execute starting at [regs.eip] until an exit condition.  [regs] is
    mutated in place so the caller can save/restore process contexts.
    [decode] supplies instructions (typically through the OS's per-frame
    decode cache).  [branch] is the conditional-jump oracle, queried with
    the Jcc's address; the default takes every conditional jump (cold
    blocks skipped).  [trace] sees every executed instruction as
    [(address, byte length)].  [cover], when given, sees the same
    instructions a stretch at a time, as [lo hi] for the straight-line
    bytes [[lo, hi)]: a superblock's executed prefix, up to and
    including the op a stop left on (yield, UD2, the sentinel [ret], a
    failed pop, a dispatch underflow), or one classic-path instruction.
    Every retired instruction lies in exactly one stretch, each stretch
    is reported before [run] returns or raises, and so under the one
    guest context the call ran in.  Stretch boundaries depend on the
    engine (block shapes, trap splits); the stretches coalesced into
    maximal contiguous runs do not, and equal [trace] coalesced the same
    way.  Unlike [trace], [cover] leaves the fast engine's step-run
    batching on.  [skip_bp] suppresses the trap check for the
    first instruction when resuming from a [Breakpoint] at that address.
    [instrs], when given, is incremented once per executed instruction
    (retired-instruction counting, independent of the cycle cost model).
    [sblocks], when given, is consulted with the pc at every block
    boundary: a returned block (which must start at that pc and be valid —
    the CPU does not re-check it) executes straight-line;
    [None] falls back to single-instruction decode/execute for that
    instruction.  Either way every observable (cycles, retired count,
    traces, events, register file at every step, exit reasons) is
    identical to running without [sblocks].  [max_instr] defaults to
    2,000,000. *)

val push : write_u32:(int -> int -> unit) -> regs -> int -> unit
(** Push a 32-bit value (used by the OS to seed the sentinel return
    address, and by attack models to build fake frames). *)
