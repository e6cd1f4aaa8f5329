module Insn = Fc_isa.Insn
module Asm = Fc_isa.Asm
module Scan = Fc_isa.Scan
module Block = Fc_isa.Block

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let reader_of_bytes b addr =
  if addr >= 0 && addr < Bytes.length b then Some (Bytes.get_uint8 b addr) else None

(* ------------------------------------------------------------------ *)
(* Insn                                                                *)
(* ------------------------------------------------------------------ *)

let sample_insns =
  [
    Insn.Push_ebp;
    Insn.Mov_ebp_esp;
    Insn.Nop;
    Insn.Ud2;
    Insn.Call_rel 0;
    Insn.Call_rel 1234;
    Insn.Call_rel (-1234);
    Insn.Call_rel 0x7fffffff;
    Insn.Call_rel (-0x80000000);
    Insn.Call_indirect;
    Insn.Ret;
    Insn.Leave;
    Insn.Alu 0x20;
    Insn.Or_mem 0x0f;
    Insn.Jmp_rel 10;
    Insn.Jmp_rel (-10);
    Insn.Jcc_rel 42;
    Insn.Jcc_rel (-5);
    Insn.Yield 3;
    Insn.Iret;
    Insn.Int_sw 0x80;
  ]

let test_encode_lengths () =
  List.iter
    (fun i -> check_int (Insn.to_string i) (Insn.length i) (List.length (Insn.encode i)))
    sample_insns

let test_encode_decode_roundtrip () =
  List.iter
    (fun i ->
      let b = Bytes.create (Insn.length i) in
      ignore (Insn.encode_into b 0 i);
      match Insn.decode ~read:(reader_of_bytes b) 0 with
      | Ok (j, len) ->
          check_bool (Insn.to_string i) true (i = j);
          check_int "len" (Insn.length i) len
      | Error _ -> Alcotest.failf "decode failed for %s" (Insn.to_string i))
    sample_insns

let test_decode_ud2 () =
  let b = Bytes.of_string "\x0f\x0b" in
  match Insn.decode ~read:(reader_of_bytes b) 0 with
  | Ok (Insn.Ud2, 2) -> ()
  | _ -> Alcotest.fail "expected UD2"

let test_decode_misaligned_ud2_fill () =
  (* UD2 fill read from an odd offset: bytes are 0x0b 0x0f … which decodes
     as a VALID Or_mem instruction — the Fig. 3 misinterpretation. *)
  let b = Bytes.of_string "\x0f\x0b\x0f\x0b" in
  match Insn.decode ~read:(reader_of_bytes b) 1 with
  | Ok (Insn.Or_mem 0x0f, 2) -> ()
  | Ok (i, _) -> Alcotest.failf "expected Or_mem, got %s" (Insn.to_string i)
  | Error _ -> Alcotest.fail "expected a valid (mis)decode"

let test_decode_unknown () =
  let b = Bytes.of_string "\xde\xad" in
  match Insn.decode ~read:(reader_of_bytes b) 0 with
  | Error (Insn.Unknown_opcode 0xde) -> ()
  | _ -> Alcotest.fail "expected Unknown_opcode"

let test_decode_truncated () =
  let b = Bytes.of_string "\xe8\x01\x02" in
  match Insn.decode ~read:(reader_of_bytes b) 0 with
  | Error Insn.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated"

let test_predicates () =
  check_bool "call rel" true (Insn.is_call (Insn.Call_rel 5));
  check_bool "call ind" true (Insn.is_call Insn.Call_indirect);
  check_bool "ret not call" false (Insn.is_call Insn.Ret);
  check_bool "ret terminates" true (Insn.is_terminator Insn.Ret);
  check_bool "jmp terminates" true (Insn.is_terminator (Insn.Jmp_rel 2));
  check_bool "jcc does NOT terminate (fallthrough exists)" false
    (Insn.is_terminator (Insn.Jcc_rel 2));
  check_bool "nop continues" false (Insn.is_terminator Insn.Nop)

let prop_roundtrip =
  QCheck.Test.make ~name:"call displacement encode/decode roundtrip" ~count:500
    QCheck.(int_range (-0x40000000) 0x40000000)
    (fun d ->
      let i = Insn.Call_rel d in
      let b = Bytes.create 5 in
      ignore (Insn.encode_into b 0 i);
      match Insn.decode ~read:(reader_of_bytes b) 0 with
      | Ok (Insn.Call_rel d', 5) -> d = d'
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Asm                                                                 *)
(* ------------------------------------------------------------------ *)

let fn ?(min_size = 32) fname items = { Asm.fname; items; min_size }

let assemble_exn ?resolve ~base specs =
  match Asm.assemble ~base ?resolve specs with
  | Ok u -> u
  | Error e -> Alcotest.failf "assemble failed: %s" e

let test_filler_length () =
  List.iter (fun n ->
      let len = List.fold_left (fun a i -> a + Insn.length i) 0 (Asm.filler n) in
      check_int (Printf.sprintf "filler %d" n) n len)
    [ 0; 1; 2; 3; 7; 64; 101 ]

let test_alignment_and_padding () =
  let u = assemble_exn ~base:0x1000 [ fn ~min_size:50 "a" []; fn "b" [] ] in
  let a = Option.get (Asm.find_function u "a") in
  let b = Option.get (Asm.find_function u "b") in
  check_int "a at base" 0x1000 a.Asm.addr;
  check_int "a padded" 50 a.Asm.size;
  check_int "b aligned" 0 (b.Asm.addr mod 16);
  check_bool "b after a" true (b.Asm.addr >= a.Asm.addr + a.Asm.size)

let test_prologue_present () =
  let u = assemble_exn ~base:0x1000 [ fn "a" []; fn ~min_size:200 "b" [] ] in
  let read a = reader_of_bytes u.Asm.code (a - u.Asm.base) in
  List.iter
    (fun (p : Asm.placed) ->
      check_bool (p.Asm.pname ^ " prologue") true
        (Scan.is_prologue_at ~read:(fun a -> read a) p.Asm.addr))
    u.Asm.functions

let test_call_resolution () =
  let u =
    assemble_exn ~base:0x1000
      [ fn "caller" [ Asm.Call "callee" ]; fn "callee" [] ]
  in
  let caller = Option.get (Asm.find_function u "caller") in
  let callee = Option.get (Asm.find_function u "callee") in
  let read a = reader_of_bytes u.Asm.code (a - u.Asm.base) in
  (* call opcode right after the 3-byte prologue *)
  let call_at = caller.Asm.addr + 3 in
  match Insn.decode ~read call_at with
  | Ok (Insn.Call_rel d, 5) -> check_int "target" callee.Asm.addr (call_at + 5 + d)
  | _ -> Alcotest.fail "expected call"

let test_external_resolution () =
  let resolve = function "ext" -> Some 0x9000 | _ -> None in
  let u = assemble_exn ~base:0x1000 ~resolve [ fn "caller" [ Asm.Call "ext" ] ] in
  let caller = Option.get (Asm.find_function u "caller") in
  let read a = reader_of_bytes u.Asm.code (a - u.Asm.base) in
  let call_at = caller.Asm.addr + 3 in
  match Insn.decode ~read call_at with
  | Ok (Insn.Call_rel d, 5) -> check_int "ext target" 0x9000 (call_at + 5 + d)
  | _ -> Alcotest.fail "expected call"

let test_unresolved_call_fails () =
  match Asm.assemble ~base:0x1000 [ fn "caller" [ Asm.Call "nosuch" ] ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure"

let test_duplicate_names_fail () =
  match Asm.assemble ~base:0x1000 [ fn "x" []; fn "x" [] ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure"

let find_call_return u caller_name =
  (* Scan the caller's body for its first call instruction and return the
     address just past it (the return address a call pushes). *)
  let caller = Option.get (Asm.find_function u caller_name) in
  let read a = reader_of_bytes u.Asm.code (a - u.Asm.base) in
  let rec go a =
    if a >= caller.Asm.addr + caller.Asm.size then Alcotest.fail "no call found"
    else
      match Insn.decode ~read a with
      | Ok (Insn.Call_rel _, len) -> a + len
      | Ok (_, len) -> go (a + len)
      | Error _ -> Alcotest.fail "decode error in body"
  in
  go caller.Asm.addr

let test_cold_block_emission () =
  (* Cold emits a Jcc over exactly n filler bytes *)
  let u = assemble_exn ~base:0x1000 [ fn ~min_size:16 "c" [ Asm.Cold 20 ] ] in
  let read a = reader_of_bytes u.Asm.code (a - u.Asm.base) in
  let c = Option.get (Asm.find_function u "c") in
  (match Insn.decode ~read (c.Asm.addr + 3) with
  | Ok (Insn.Jcc_rel 20, 2) -> ()
  | _ -> Alcotest.fail "expected jcc +20 after the prologue");
  (* the skip target is decodable code (the function continues there) *)
  match Insn.decode ~read (c.Asm.addr + 5 + 20) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "jcc target must be an instruction boundary"

let test_parity_control () =
  let u =
    assemble_exn ~base:0x1000
      [
        fn "odd_caller" [ Asm.Fill 1; Asm.Call_parity ("callee", Asm.Odd_return) ];
        fn "even_caller" [ Asm.Call_parity ("callee", Asm.Even_return) ];
        fn "callee" [];
      ]
  in
  check_int "odd return" 1 (find_call_return u "odd_caller" land 1);
  check_int "even return" 0 (find_call_return u "even_caller" land 1)

let test_function_at () =
  let u = assemble_exn ~base:0x1000 [ fn ~min_size:40 "a" []; fn "b" [] ] in
  let a = Option.get (Asm.find_function u "a") in
  check_bool "inside a" true
    ((Option.get (Asm.function_at u (a.Asm.addr + 10))).Asm.pname = "a");
  check_bool "before base" true (Asm.function_at u 0x0fff = None)

let prop_parity =
  QCheck.Test.make ~name:"forced return parity holds for any preceding fill"
    ~count:100
    QCheck.(pair (int_bound 37) bool)
    (fun (fill, want_odd) ->
      let parity = if want_odd then Asm.Odd_return else Asm.Even_return in
      let u =
        assemble_exn ~base:0x2000
          [ fn "c" [ Asm.Fill fill; Asm.Call_parity ("t", parity) ]; fn "t" [] ]
      in
      find_call_return u "c" land 1 = if want_odd then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Scan                                                                *)
(* ------------------------------------------------------------------ *)

let test_scan_bounds () =
  let u =
    assemble_exn ~base:0x1000
      [ fn ~min_size:100 "a" []; fn ~min_size:60 "b" []; fn "c" [] ]
  in
  let read a = reader_of_bytes u.Asm.code (a - u.Asm.base) in
  let a = Option.get (Asm.find_function u "a") in
  let b = Option.get (Asm.find_function u "b") in
  let c = Option.get (Asm.find_function u "c") in
  let lo = u.Asm.base and hi = u.Asm.base + Bytes.length u.Asm.code in
  (match Scan.function_bounds ~read ~lo ~hi (b.Asm.addr + 20) with
  | Some (start, stop) ->
      check_int "start" b.Asm.addr start;
      check_int "stop" c.Asm.addr stop
  | None -> Alcotest.fail "bounds not found");
  (* last function: stop = hi *)
  (match Scan.function_bounds ~read ~lo ~hi (c.Asm.addr + 4) with
  | Some (start, stop) ->
      check_int "last start" c.Asm.addr start;
      check_int "last stop" hi stop
  | None -> Alcotest.fail "bounds not found");
  (* first function *)
  match Scan.function_bounds ~read ~lo ~hi (a.Asm.addr + 1) with
  | Some (start, _) -> check_int "first start" a.Asm.addr start
  | None -> Alcotest.fail "bounds not found"

let test_scan_backward_limit () =
  let b = Bytes.make 64 '\x00' in
  check_bool "nothing found" true
    (Scan.search_backward ~read:(reader_of_bytes b) ~limit:0 48 = None)

let test_scan_cross_page () =
  (* Function bigger than a page: the backward scan from a fault deep in
     the second page must walk across the page boundary. *)
  let u = assemble_exn ~base:0x1000 [ fn ~min_size:5000 "big" []; fn "next" [] ] in
  let read a = reader_of_bytes u.Asm.code (a - u.Asm.base) in
  let big = Option.get (Asm.find_function u "big") in
  let next = Option.get (Asm.find_function u "next") in
  let lo = u.Asm.base and hi = u.Asm.base + Bytes.length u.Asm.code in
  match Scan.function_bounds ~read ~lo ~hi (big.Asm.addr + 4500) with
  | Some (start, stop) ->
      check_int "start" big.Asm.addr start;
      check_int "stop" next.Asm.addr stop
  | None -> Alcotest.fail "bounds not found"

(* ------------------------------------------------------------------ *)
(* Block                                                               *)
(* ------------------------------------------------------------------ *)

let page_base = 0xc0100000
let page_size = 4096

(* What each instruction must unpack to, written out independently of
   the decoder. *)
let expected_op = function
  | Insn.Push_ebp -> Block.Push_ebp
  | Insn.Mov_ebp_esp -> Block.Mov_ebp_esp
  | Insn.Leave -> Block.Leave
  | Insn.Nop | Insn.Alu _ | Insn.Or_mem _ | Insn.Int_sw _ -> Block.Step
  | Insn.Jcc_rel _ -> Block.Jcc
  | Insn.Jmp_rel _ -> Block.Jmp
  | Insn.Call_rel _ -> Block.Call
  | Insn.Call_indirect -> Block.Call_ind
  | Insn.Ret | Insn.Iret -> Block.Ret
  | Insn.Yield _ -> Block.Yield
  | Insn.Ud2 -> Block.Ud2

let expected_arg ~pc ~len = function
  | Insn.Jcc_rel d | Insn.Jmp_rel d | Insn.Call_rel d -> pc + len + d
  | Insn.Yield id -> id
  | _ -> 0

(* A page holding an encoder-built instruction stream with random bytes
   mixed in (written near the page tail a quarter of the time), a start
   pc in or just past its first bytes, and up to four trap addresses
   around the start. *)
let gen_block_case =
  let open QCheck.Gen in
  let insn =
    frequency
      [
        (4, return Insn.Nop);
        (3, return Insn.Push_ebp);
        (3, return Insn.Mov_ebp_esp);
        (2, return Insn.Leave);
        (4, map (fun i -> Insn.Alu i) (int_bound 255));
        (1, map (fun i -> Insn.Or_mem i) (int_bound 255));
        (1, map (fun i -> Insn.Int_sw i) (int_bound 255));
        (3, map (fun d -> Insn.Jcc_rel d) (int_range (-128) 127));
        (1, map (fun d -> Insn.Jmp_rel d) (int_range (-128) 127));
        (1, map (fun d -> Insn.Call_rel d) (int_range (-0x80000000) 0x7fffffff));
        (1, return Insn.Call_indirect);
        (1, return Insn.Ret);
        (1, return Insn.Iret);
        (1, map (fun i -> Insn.Yield i) (int_bound 255));
        (1, return Insn.Ud2);
      ]
  in
  let item =
    frequency
      [ (9, map Insn.encode insn); (1, map (fun b -> [ b ]) (int_bound 255)) ]
  in
  let* items = list_size (int_range 1 120) item in
  let* near_tail = int_bound 3 in
  let* off =
    if near_tail = 0 then int_range (page_size - 300) (page_size - 1)
    else int_bound (page_size - 400)
  in
  let* skew = int_bound 3 in
  let* traps = list_size (int_bound 4) (int_range (-2) 160) in
  let page = Bytes.make page_size '\000' in
  let (_ : int) =
    List.fold_left
      (fun o b ->
        if o < page_size then Bytes.set_uint8 page o b;
        o + 1)
      off (List.concat items)
  in
  let pc = page_base + min (off + skew) (page_size - 1) in
  return (page, pc, List.map (fun d -> pc + d) traps)

let arb_block_case =
  QCheck.make gen_block_case ~print:(fun (_, pc, traps) ->
      Printf.sprintf "pc 0x%x, traps [%s]" pc
        (String.concat "; " (List.map (Printf.sprintf "0x%x") traps)))

(* The pc of every op, or [None] when some word does not unpack to
   [Insn.decode]'s op, length and argument at that pc, or to the step
   run (length and byte span) that starts there, or when the interior
   bounds are off. *)
let unpacked_pcs ~read pc (b : Block.body) =
  let words = b.Block.words in
  let n = Array.length words in
  let pcs = Array.make n 0 in
  let rec walk i a =
    i = n
    ||
    let w = words.(i) in
    pcs.(i) <- a;
    match Insn.decode ~read a with
    | Error _ -> false
    | Ok (insn, len) ->
        Block.op w = expected_op insn
        && Block.len w = len
        && Block.arg w = expected_arg ~pc:a ~len insn
        &&
        let rec run j bytes =
          if j < n && Block.op words.(j) = Block.Step then
            run (j + 1) (bytes + Block.len words.(j))
          else (j - i, bytes)
        in
        let r, bytes = run i 0 in
        Block.run w = r && Block.run_bytes w = bytes && walk (i + 1) (a + len)
  in
  if n > 0 && walk 0 pc && b.Block.lo = pc + Block.len words.(0)
     && b.Block.hi = pcs.(n - 1)
  then Some pcs
  else None

let prop_block_decode =
  QCheck.Test.make
    ~name:"block decode: traps split at op boundaries, words unpack exactly"
    ~count:500 arb_block_case (fun (page, pc, traps) ->
      let read a = reader_of_bytes page (a - page_base) in
      let last = page_base + page_size - 6 in
      let is_trap a = List.mem a traps in
      let free = Block.decode ~read ~last ~stop:(fun _ -> false) pc in
      let split = Block.decode ~read ~last ~stop:is_trap pc in
      match free with
      | None -> split = None
      | Some f -> (
          match unpacked_pcs ~read pc f with
          | None -> false
          | Some pcs -> (
              let n = Array.length pcs in
              n <= 64
              && pcs.(n - 1) <= last
              && (is_trap pc && split = None
                 ||
                 let rec first_trap k =
                   if k >= n then None
                   else if is_trap pcs.(k) then Some k
                   else first_trap (k + 1)
                 in
                 match (first_trap 1, split) with
                 | None, Some s -> s = f
                 | Some k, Some s ->
                     Array.length s.Block.words = k
                     && unpacked_pcs ~read pc s <> None
                     && Array.for_all2
                          (fun a b ->
                            Block.op a = Block.op b
                            && Block.len a = Block.len b
                            && Block.arg a = Block.arg b)
                          s.Block.words
                          (Array.sub f.Block.words 0 k)
                 | _, None -> false))))

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "isa.insn",
      [
        tc "encode lengths" test_encode_lengths;
        tc "encode/decode roundtrip" test_encode_decode_roundtrip;
        tc "ud2 decodes as ud2" test_decode_ud2;
        tc "odd-offset ud2 fill misdecodes as valid or" test_decode_misaligned_ud2_fill;
        tc "unknown opcode" test_decode_unknown;
        tc "truncated" test_decode_truncated;
        tc "predicates" test_predicates;
        QCheck_alcotest.to_alcotest prop_roundtrip;
      ] );
    ( "isa.asm",
      [
        tc "filler is exact length" test_filler_length;
        tc "alignment and min_size padding" test_alignment_and_padding;
        tc "every function starts with the prologue" test_prologue_present;
        tc "internal call resolution" test_call_resolution;
        tc "external call resolution" test_external_resolution;
        tc "unresolved call fails" test_unresolved_call_fails;
        tc "duplicate names fail" test_duplicate_names_fail;
        tc "cold block emission" test_cold_block_emission;
        tc "return-address parity control" test_parity_control;
        tc "function_at" test_function_at;
        QCheck_alcotest.to_alcotest prop_parity;
      ] );
    ( "isa.scan",
      [
        tc "function bounds between neighbors" test_scan_bounds;
        tc "backward scan respects limit" test_scan_backward_limit;
        tc "bounds across page-sized function" test_scan_cross_page;
      ] );
    ("isa.block", [ QCheck_alcotest.to_alcotest prop_block_decode ]);
  ]
