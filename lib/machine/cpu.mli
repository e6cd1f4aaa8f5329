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
    bytes and start pc agree.  The {e per-guest state} below stamps that
    body with what this guest validated it under.  The builder (the OS)
    guarantees the safety invariants that make entry-only checking
    sound: every instruction of a block lies within one host frame, no
    instruction at index [>= 1] is a trap address, and the
    [(view tag, frame version, trap generation)] snapshot is
    re-validated before every execution (see DESIGN.md §10). *)

type sblock = {
  sb_start : int;  (** address of the first instruction *)
  sb_body : Fc_isa.Block.body;
      (** the decoded ops; op pcs follow from [sb_start] and the op
          lengths, and the body's [exit] (static successor pc, or [-1]
          when dynamic) drives block chaining *)
  mutable sb_tag : int;
      (** [Ept.tag] the block was last validated under; a re-entered
          view's blocks revalidate by compare, and the owner restamps the
          field when a tag change left this page's translation unchanged,
          so view switches do not force re-decodes *)
  sb_global : bool;
      (** the x86 global-page bit: set iff the block's page had never
          been remapped by any kernel view when it was built, so its
          translation is view-invariant and validity skips the tag
          check *)
  sb_frame : int;  (** host frame the block decoded from *)
  sb_version : int;  (** [Phys_mem.version] of [sb_frame] at build time *)
  mutable sb_trap_gen : int;
      (** trap-set generation last validated under; the owner restamps it
          when a trap-set change left the block's interior trap-free *)
  mutable sb_next : sblock option;  (** chained block at the body's exit *)
}

val run :
  decode:(int -> decode_result) ->
  read_u32:(int -> int option) ->
  write_u32:(int -> int -> unit) ->
  is_trap:(int -> bool) ->
  trace:(int -> int -> unit) option ->
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
    [(address, byte length)].  [skip_bp] suppresses the trap check for the
    first instruction when resuming from a [Breakpoint] at that address.
    [instrs], when given, is incremented once per executed instruction
    (retired-instruction counting, independent of the cycle cost model).
    [sblocks], when given, is consulted with the pc at every block
    boundary: a returned block (which must start at that pc and be valid —
    the CPU does not re-check the snapshot) executes straight-line;
    [None] falls back to single-instruction decode/execute for that
    instruction.  Either way every observable (cycles, retired count,
    traces, events, register file at every step, exit reasons) is
    identical to running without [sblocks].  [max_instr] defaults to
    2,000,000. *)

val push : write_u32:(int -> int -> unit) -> regs -> int -> unit
(** Push a 32-bit value (used by the OS to seed the sentinel return
    address, and by attack models to build fake frames). *)
