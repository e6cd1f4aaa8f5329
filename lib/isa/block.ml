type op =
  | Step
  | Push_ebp
  | Mov_ebp_esp
  | Leave
  | Jcc
  | Jmp
  | Call
  | Call_ind
  | Ret
  | Yield
  | Ud2

(* Field positions of the packed word; block.mli states the layout. *)
let op_code = function
  | Step -> 0
  | Push_ebp -> 1
  | Mov_ebp_esp -> 2
  | Leave -> 3
  | Jcc -> 4
  | Jmp -> 5
  | Call -> 6
  | Call_ind -> 7
  | Ret -> 8
  | Yield -> 9
  | Ud2 -> 10

let op w =
  match w land 0xf with
  | 0 -> Step
  | 1 -> Push_ebp
  | 2 -> Mov_ebp_esp
  | 3 -> Leave
  | 4 -> Jcc
  | 5 -> Jmp
  | 6 -> Call
  | 7 -> Call_ind
  | 8 -> Ret
  | 9 -> Yield
  | _ -> Ud2

let len w = (w lsr 4) land 0x7
let run w = (w lsr 7) land 0x7f
let run_bytes w = (w lsr 14) land 0x1ff
let arg w = w asr 23

let pack op ~len ~run ~run_bytes ~arg =
  op_code op lor (len lsl 4) lor (run lsl 7) lor (run_bytes lsl 14)
  lor (arg lsl 23)

type body = { words : int array; exit : int; lo : int; hi : int }

let empty = { words = [||]; exit = -1; lo = 0; hi = -1 }
let cap = 64

let decode ~read ~last ~stop pc =
  (* (op, len, arg) in reverse, then the exit pc *)
  let rec go a n acc =
    if n >= cap || a > last || stop a then (acc, a)
    else
      match Insn.decode ~read a with
      | Error _ ->
          (* undecodable bytes: stop before them; the per-instruction
             path raises Invalid_opcode there with eip = a *)
          (acc, a)
      | Ok (insn, len) -> (
          let add op arg = (op, len, arg) :: acc in
          match Scan.boundary insn ~pc:a ~len with
          | Scan.B_seq ->
              let op =
                match insn with
                | Insn.Push_ebp -> Push_ebp
                | Insn.Mov_ebp_esp -> Mov_ebp_esp
                | Insn.Leave -> Leave
                | _ -> Step
              in
              go (a + len) (n + 1) (add op 0)
          | Scan.B_cond taken -> go (a + len) (n + 1) (add Jcc taken)
          | Scan.B_jump target -> (add Jmp target, target)
          | Scan.B_call target -> (add Call target, target)
          | Scan.B_call_dynamic -> (add Call_ind 0, -1)
          | Scan.B_return -> (add Ret 0, -1)
          | Scan.B_stop -> (
              match insn with
              | Insn.Yield id -> (add Yield id, -1)
              | _ -> (add Ud2 0, -1)))
  in
  match go pc 0 [] with
  | [], _ -> None
  | rev, exit ->
      let ops = Array.of_list (List.rev rev) in
      let n = Array.length ops in
      let words = Array.make n 0 in
      (* step runs are filled back to front; a run ends at op [n] or at
         the first non-Step op *)
      let run = ref 0 and run_bytes = ref 0 in
      for i = n - 1 downto 0 do
        let op, len, arg = ops.(i) in
        (match op with
        | Step ->
            incr run;
            run_bytes := !run_bytes + len
        | _ ->
            run := 0;
            run_bytes := 0);
        words.(i) <- pack op ~len ~run:!run ~run_bytes:!run_bytes ~arg
      done;
      let _, len0, _ = ops.(0) in
      let hi = ref pc in
      for i = 0 to n - 2 do
        let _, len, _ = ops.(i) in
        hi := !hi + len
      done;
      Some { words; exit; lo = pc + len0; hi = !hi }
