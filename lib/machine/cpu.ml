module Insn = Fc_isa.Insn
module Block = Fc_isa.Block

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

type sblock = {
  sb_start : int;  (* guest-virtual address of the first instruction *)
  sb_body : Block.body;  (* the decoded ops, shared by every guest of the image *)
  mutable sb_trap_gen : int;
      (* trap-set generation the block was last validated under; restamped
         when a trap-set change left the block's interior trap-free (entry
         traps are probed by the outer loop, not the block) *)
}

(* The stretch a coverage hook has yet to see: the block entered, or the
   classic instruction decoded, last.  Its end waits until execution has
   left it and follows from how many ops retired since it began, so a
   stretch cut short by a taken branch, a stop or any exception ends
   after exactly the ops that ran, the stopping one included. *)
type pending = {
  cover : int -> int -> unit;
  mutable p_lo : int;  (* start pc; -1 when nothing is pending *)
  mutable p_e0 : int;  (* instructions the call had retired before it *)
  mutable p_words : int array;  (* the block's ops; [||] for one insn *)
  mutable p_end : int;  (* end of the whole block, or of the insn *)
}

let flush_pending p retired =
  let lo = p.p_lo and n = retired - p.p_e0 in
  p.p_lo <- -1;
  if lo >= 0 && n > 0 then
    if n >= Array.length p.p_words then p.cover lo p.p_end
    else begin
      let pc = ref lo in
      for j = 0 to n - 1 do
        pc := !pc + ((Array.unsafe_get p.p_words j lsr 4) land 0x7)
      done;
      p.cover lo !pc
    end

let run ~decode ~read_u32 ~write_u32 ~is_trap ~trace ?cover ?events
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
  (* With a coverage hook, decode and block lookup are wrapped, once per
     call, to close the pending stretch and open the next; with none,
     the loops below run, and allocate, as they would with no hook. *)
  let pending =
    match cover with
    | None -> None
    | Some cover -> Some { cover; p_lo = -1; p_e0 = 0; p_words = [||]; p_end = 0 }
  in
  let decode =
    match pending with
    | None -> decode
    | Some p -> (
        fun pc ->
          flush_pending p !executed;
          match decode pc with
          | D_ok (_, len) as d ->
              p.p_lo <- pc;
              p.p_e0 <- !executed;
              p.p_words <- [||];
              p.p_end <- pc + len;
              d
          | (D_invalid | D_unmapped) as d -> d)
  in
  let sblocks =
    match (pending, sblocks) with
    | None, _ | _, None -> sblocks
    | Some p, Some find ->
        Some
          (fun pc ->
            flush_pending p !executed;
            match find pc with
            | Some b as r ->
                let body = b.sb_body in
                let words = body.Block.words in
                p.p_lo <- pc;
                p.p_e0 <- !executed;
                p.p_words <- words;
                p.p_end <-
                  body.Block.hi + ((words.(Array.length words - 1) lsr 4) land 0x7);
                r
            | None -> None)
  in
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
     decode, no per-instruction dispatch through closures — one packed
     word per op, read inline in the layout Block states (op in bits
     0..3, len in 4..6, step run in 7..13, run bytes in 14..22, arg from
     bit 23), with the pc carried along from the block's start.  eip is
     kept exact at every op so a Stop raised mid-block (unmapped stack
     slot, yield, ud2, dispatch underflow) leaves the same register file
     as the classic path would. *)
  let untraced = match trace with None -> true | Some _ -> false in
  let exec_block (b : sblock) =
    let words = b.sb_body.Block.words in
    let n = Array.length words in
    let i = ref 0 in
    let pc = ref b.sb_start in
    let continue_ = ref true in
    while !continue_ && !i < n && !executed < max_instr do
      let k = !i in
      let w = Array.unsafe_get words k in
      let st = (w lsr 7) land 0x7f in
      if st > 0 && untraced then begin
        (* a run of pure steps: observable state after r of them is just
           the three counters plus eip at the next instruction, so retire
           the whole run (clipped to the instruction budget) at once *)
        let r = min st (max_instr - !executed) in
        instr_ctr := !instr_ctr + r;
        executed := !executed + r;
        cycles := !cycles + r;
        (if r = st then pc := !pc + ((w lsr 14) land 0x1ff)
         else
           for j = k to k + r - 1 do
             pc := !pc + ((Array.unsafe_get words j lsr 4) land 0x7)
           done);
        regs.eip <- !pc;
        i := k + r
      end
      else begin
      let pc0 = !pc in
      let len = (w lsr 4) land 0x7 in
      let next = pc0 + len in
      (match trace with Some f -> f pc0 len | None -> ());
      incr instr_ctr;
      incr executed;
      incr cycles;
      (match w land 0xf with
      | 0 (* Step *) -> regs.eip <- next
      | 1 (* Push_ebp *) ->
          push regs.ebp;
          regs.eip <- next
      | 2 (* Mov_ebp_esp *) ->
          regs.ebp <- regs.esp;
          regs.eip <- next
      | 3 (* Leave *) ->
          regs.esp <- regs.ebp;
          regs.ebp <- pop ();
          regs.eip <- next
      | 4 (* Jcc *) ->
          if branch pc0 then begin
            regs.eip <- w asr 23;
            continue_ := false
          end
          else regs.eip <- next
      | 5 (* Jmp *) ->
          regs.eip <- w asr 23;
          continue_ := false
      | 6 (* Call *) ->
          incr cycles;
          push next;
          regs.eip <- w asr 23;
          emit (Ev_call regs.eip);
          continue_ := false
      | 7 (* Call_ind *) ->
          incr cycles;
          if Queue.is_empty dispatch then
            raise (Stop (Fault (Dispatch_underflow pc0)))
          else begin
            let target = Queue.pop dispatch in
            push next;
            regs.eip <- target;
            emit (Ev_call target);
            continue_ := false
          end
      | 8 (* Ret *) ->
          incr cycles;
          let target = pop () in
          if target = sentinel_return then raise (Stop Returned)
          else begin
            emit Ev_return;
            regs.eip <- target;
            continue_ := false
          end
      | 9 (* Yield *) ->
          regs.eip <- next;
          raise (Stop (Blocked (w asr 23)))
      | _ (* Ud2 *) -> raise (Stop Invalid_opcode));
      pc := next;
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
    (match pending with Some p -> flush_pending p !executed | None -> ());
    Fault Runaway
  with e -> (
    (match pending with Some p -> flush_pending p !executed | None -> ());
    match e with Stop r -> r | _ -> raise e)
