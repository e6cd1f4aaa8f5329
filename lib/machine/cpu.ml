module Insn = Fc_isa.Insn

type regs = { mutable eip : int; mutable ebp : int; mutable esp : int }

let copy_regs r = { eip = r.eip; ebp = r.ebp; esp = r.esp }
let sentinel_return = 0

type fault =
  | Unmapped_code of int
  | Unmapped_data of int
  | Dispatch_underflow of int
  | Runaway

type exit_reason =
  | Breakpoint of int
  | Invalid_opcode
  | Blocked of int
  | Returned
  | Fault of fault

let pp_exit ppf = function
  | Breakpoint a -> Format.fprintf ppf "breakpoint@0x%x" a
  | Invalid_opcode -> Format.pp_print_string ppf "invalid-opcode"
  | Blocked id -> Format.fprintf ppf "blocked(%d)" id
  | Returned -> Format.pp_print_string ppf "returned"
  | Fault (Unmapped_code a) -> Format.fprintf ppf "fault: unmapped code 0x%x" a
  | Fault (Unmapped_data a) -> Format.fprintf ppf "fault: unmapped data 0x%x" a
  | Fault (Dispatch_underflow a) -> Format.fprintf ppf "fault: dispatch underflow at 0x%x" a
  | Fault Runaway -> Format.pp_print_string ppf "fault: runaway execution"

let push ~write_u32 regs v =
  regs.esp <- regs.esp - 4;
  write_u32 regs.esp v

type decode_result = D_ok of Insn.t * int | D_invalid | D_unmapped

let decoder_of_fetch fetch pc =
  match fetch pc with
  | None -> D_unmapped
  | Some _ -> (
      match Insn.decode ~read:fetch pc with
      | Ok (i, len) -> D_ok (i, len)
      | Error (Insn.Unknown_opcode _) | Error Insn.Truncated -> D_invalid)

type event = Ev_call of int | Ev_return

(* ---------------- superblocks ---------------- *)

(* One decoded instruction of a superblock, flattened into a micro-op
   discriminant plus parallel arrays (pc, byte length, argument) — no
   per-instruction closures, no re-decoding.  The executor below retires
   each op with exactly the same observable effects (cycles, retired
   count, trace callbacks, events, register/stack mutations, eip at every
   step) as the per-instruction path; any divergence is a bug the
   differential tests in test/differential.ml are built to catch. *)
type sop =
  | S_step  (* Nop / Alu / Or_mem / Int_sw: advance eip only *)
  | S_push_ebp
  | S_mov_ebp_esp
  | S_leave
  | S_jcc  (* arg = taken target; falls through in-block otherwise *)
  | S_jmp  (* arg = target *)
  | S_call  (* arg = target *)
  | S_call_ind
  | S_ret  (* ret and iret: identical semantics at this modelling level *)
  | S_yield  (* arg = yield id *)
  | S_ud2

type sblock = {
  sb_start : int;  (* guest-virtual address of the first instruction *)
  sb_ops : sop array;
  sb_pcs : int array;
  sb_lens : int array;
  sb_args : int array;
  sb_steps : int array;
      (* sb_steps.(i) = length of the run of consecutive S_step ops
         starting at i (0 when op i is not S_step): a pure-step run has no
         observable effect beyond the three counters and the final eip, so
         the executor retires it in one strike when no tracer is armed *)
  sb_exit : int;
      (* static successor pc when the block always continues at one known
         address (fall-through split, direct jump, direct call); -1 when
         the successor is dynamic (ret, indirect call, yield, ud2) *)
  mutable sb_tag : int;
      (* Ept.tag the block was last validated under: a re-entered view's
         blocks match by compare, and the block is restamped in place when
         a tag change turns out not to have changed this page's
         translation *)
  mutable sb_tag2 : int;
  mutable sb_tag3 : int;
      (* older validation tags, MRU-ordered — a 3-deep memo (hardware
         PCID-cache style) so a shared-frame block entered from the full
         kernel view and two app views in rotation revalidates by compare
         every way instead of paying a re-translation restamp on every
         switch; a fourth concurrently-hot view degrades to one restamp
         per switch-in, never to a rebuild *)
  sb_global : bool;
      (* the x86 global-page bit: set iff the block was built from a page
         no kernel view has ever remapped, whose translation is therefore
         identical under every view — validity then skips the tag check
         entirely *)
  sb_frame : int;  (* host frame the block decoded from *)
  sb_version : int;  (* Phys_mem.version of sb_frame at build time *)
  mutable sb_trap_gen : int;
      (* trap-set generation the block was last validated under; restamped
         when a trap-set change left the block's interior trap-free (entry
         traps are probed by the outer loop, not the block) *)
  mutable sb_next : sblock option;  (* chained block at sb_exit *)
}

let run ~decode ~read_u32 ~write_u32 ~is_trap ~trace ?events
    ?(branch = fun _ -> true) ~cycles ?instrs ~dispatch ?skip_bp ?sblocks
    ?(max_instr = 2_000_000) regs =
  let instr_ctr = match instrs with Some r -> r | None -> ref 0 in
  let emit e = match events with Some f -> f e | None -> () in
  let skip_bp = ref skip_bp in
  let exception Stop of exit_reason in
  let pop () =
    match read_u32 regs.esp with
    | Some v ->
        regs.esp <- regs.esp + 4;
        v
    | None -> raise (Stop (Fault (Unmapped_data regs.esp)))
  in
  let push v = push ~write_u32 regs v in
  let executed = ref 0 in
  let step_classic pc =
    match decode pc with
    | D_unmapped -> raise (Stop (Fault (Unmapped_code pc)))
    | D_invalid -> raise (Stop Invalid_opcode)
    | D_ok (insn, len) -> (
        (match trace with Some f -> f pc len | None -> ());
        incr instr_ctr;
        incr executed;
        incr cycles;
        match insn with
        | Insn.Ud2 -> raise (Stop Invalid_opcode)
        | Insn.Push_ebp ->
            push regs.ebp;
            regs.eip <- pc + len
        | Insn.Mov_ebp_esp ->
            regs.ebp <- regs.esp;
            regs.eip <- pc + len
        | Insn.Leave ->
            regs.esp <- regs.ebp;
            regs.ebp <- pop ();
            regs.eip <- pc + len
        | Insn.Ret ->
            incr cycles;
            let target = pop () in
            if target = sentinel_return then raise (Stop Returned)
            else begin
              emit Ev_return;
              regs.eip <- target
            end
        | Insn.Iret ->
            incr cycles;
            let target = pop () in
            if target = sentinel_return then raise (Stop Returned)
            else begin
              emit Ev_return;
              regs.eip <- target
            end
        | Insn.Call_rel d ->
            incr cycles;
            push (pc + len);
            regs.eip <- pc + len + d;
            emit (Ev_call regs.eip)
        | Insn.Call_indirect ->
            incr cycles;
            if Queue.is_empty dispatch then
              raise (Stop (Fault (Dispatch_underflow pc)))
            else begin
              let target = Queue.pop dispatch in
              push (pc + len);
              regs.eip <- target;
              emit (Ev_call target)
            end
        | Insn.Jmp_rel d -> regs.eip <- pc + len + d
        | Insn.Jcc_rel d ->
            regs.eip <- (if branch pc then pc + len + d else pc + len)
        | Insn.Yield id ->
            regs.eip <- pc + len;
            raise (Stop (Blocked id))
        | Insn.Nop | Insn.Alu _ | Insn.Or_mem _ | Insn.Int_sw _ ->
            regs.eip <- pc + len)
  in
  (* Straight-line execution of a pre-validated block: no trap probe, no
     decode, no per-instruction dispatch through closures — just parallel
     array walks.  eip is kept exact at every op so a Stop raised mid-block
     (unmapped stack slot, yield, ud2, dispatch underflow) leaves the same
     register file as the classic path would. *)
  let untraced = match trace with None -> true | Some _ -> false in
  let exec_block (b : sblock) =
    let ops = b.sb_ops
    and pcs = b.sb_pcs
    and lens = b.sb_lens
    and args = b.sb_args
    and steps = b.sb_steps in
    let n = Array.length ops in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ && !i < n && !executed < max_instr do
      let k = !i in
      let st = Array.unsafe_get steps k in
      if st > 0 && untraced then begin
        (* a run of pure steps: observable state after r of them is just
           the three counters plus eip at the next instruction, so retire
           the whole run (clipped to the instruction budget) at once *)
        let r = min st (max_instr - !executed) in
        instr_ctr := !instr_ctr + r;
        executed := !executed + r;
        cycles := !cycles + r;
        let last = k + r - 1 in
        regs.eip <- Array.unsafe_get pcs last + Array.unsafe_get lens last;
        i := k + r
      end
      else begin
      let pc = Array.unsafe_get pcs k in
      let len = Array.unsafe_get lens k in
      (match trace with Some f -> f pc len | None -> ());
      incr instr_ctr;
      incr executed;
      incr cycles;
      (match Array.unsafe_get ops k with
      | S_step -> regs.eip <- pc + len
      | S_push_ebp ->
          push regs.ebp;
          regs.eip <- pc + len
      | S_mov_ebp_esp ->
          regs.ebp <- regs.esp;
          regs.eip <- pc + len
      | S_leave ->
          regs.esp <- regs.ebp;
          regs.ebp <- pop ();
          regs.eip <- pc + len
      | S_jcc ->
          if branch pc then begin
            regs.eip <- Array.unsafe_get args k;
            continue_ := false
          end
          else regs.eip <- pc + len
      | S_jmp ->
          regs.eip <- Array.unsafe_get args k;
          continue_ := false
      | S_call ->
          incr cycles;
          push (pc + len);
          regs.eip <- Array.unsafe_get args k;
          emit (Ev_call regs.eip);
          continue_ := false
      | S_call_ind ->
          incr cycles;
          if Queue.is_empty dispatch then
            raise (Stop (Fault (Dispatch_underflow pc)))
          else begin
            let target = Queue.pop dispatch in
            push (pc + len);
            regs.eip <- target;
            emit (Ev_call target);
            continue_ := false
          end
      | S_ret ->
          incr cycles;
          let target = pop () in
          if target = sentinel_return then raise (Stop Returned)
          else begin
            emit Ev_return;
            regs.eip <- target;
            continue_ := false
          end
      | S_yield ->
          regs.eip <- pc + len;
          raise (Stop (Blocked (Array.unsafe_get args k)))
      | S_ud2 -> raise (Stop Invalid_opcode));
      incr i
      end
    done
  in
  try
    (match sblocks with
    | None ->
        while !executed < max_instr do
          let pc = regs.eip in
          (match !skip_bp with
          | Some a when a = pc -> skip_bp := None
          | Some _ | None -> if is_trap pc then raise (Stop (Breakpoint pc)));
          step_classic pc
        done
    | Some find ->
        while !executed < max_instr do
          let pc = regs.eip in
          (match !skip_bp with
          | Some a when a = pc -> skip_bp := None
          | Some _ | None -> if is_trap pc then raise (Stop (Breakpoint pc)));
          match find pc with
          | Some b -> exec_block b
          | None -> step_classic pc
        done);
    Fault Runaway
  with Stop r -> r
