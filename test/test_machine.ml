module Cpu = Fc_machine.Cpu
module Action = Fc_machine.Action
module Process = Fc_machine.Process
module Os = Fc_machine.Os
module Image = Fc_kernel.Image
module Layout = Fc_kernel.Layout
module Irq_paths = Fc_kernel.Irq_paths

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let image = lazy (Image.build_exn ())
let fresh_os ?config () = Os.create ?config (Lazy.force image)

(* ------------------------------------------------------------------ *)
(* Cpu on a hand-built code buffer                                     *)
(* ------------------------------------------------------------------ *)

(* A tiny flat machine: code at 0x100, stack at 0x1000 in one buffer. *)
let flat_machine code =
  let mem = Bytes.make 0x2000 '\x00' in
  Bytes.blit code 0 mem 0x100 (Bytes.length code);
  let fetch a = if a >= 0 && a < 0x2000 then Some (Bytes.get_uint8 mem a) else None in
  let read_u32 a =
    if a >= 0 && a + 3 < 0x2000 then
      Some
        (Bytes.get_uint8 mem a
        lor (Bytes.get_uint8 mem (a + 1) lsl 8)
        lor (Bytes.get_uint8 mem (a + 2) lsl 16)
        lor (Bytes.get_uint8 mem (a + 3) lsl 24))
    else None
  in
  let write_u32 a v =
    for i = 0 to 3 do
      Bytes.set_uint8 mem (a + i) ((v lsr (8 * i)) land 0xff)
    done
  in
  (mem, fetch, read_u32, write_u32)

let encode_insns insns =
  let buf = Buffer.create 64 in
  List.iter
    (fun i -> List.iter (fun b -> Buffer.add_char buf (Char.chr b)) (Fc_isa.Insn.encode i))
    insns;
  Buffer.to_bytes buf

let run_flat ?(traps = []) ?dispatch insns =
  let _, fetch, read_u32, write_u32 = flat_machine (encode_insns insns) in
  let regs = { Cpu.eip = 0x100; ebp = 0; esp = 0x1f00 } in
  Cpu.push ~write_u32 regs Cpu.sentinel_return;
  let q = Queue.create () in
  Option.iter (List.iter (fun a -> Queue.add a q)) dispatch;
  let cycles = ref 0 in
  let r =
    Cpu.run ~decode:(Cpu.decoder_of_fetch fetch) ~read_u32 ~write_u32
      ~is_trap:(fun a -> List.mem a traps)
      ~trace:None ~cycles ~dispatch:q regs
  in
  (r, regs, !cycles)

let test_cpu_returned () =
  let r, _, cycles = run_flat [ Fc_isa.Insn.Nop; Fc_isa.Insn.Ret ] in
  check_bool "returned" true (r = Cpu.Returned);
  check_bool "cycles counted" true (cycles >= 2)

let test_cpu_frame_chain () =
  (* call a function that builds a frame; inspect the saved chain. *)
  let open Fc_isa.Insn in
  (* 0x100: call +3 (to 0x108); 0x105: ret; padding; 0x108: push ebp; mov; leave; ret *)
  let insns = [ Call_rel 3; Ret; Nop; Nop; Nop; Push_ebp; Mov_ebp_esp; Leave; Ret ] in
  let r, _, _ = run_flat insns in
  check_bool "returned through frames" true (r = Cpu.Returned)

let test_cpu_ud2 () =
  let r, regs, _ = run_flat [ Fc_isa.Insn.Nop; Fc_isa.Insn.Ud2 ] in
  check_bool "invalid opcode" true (r = Cpu.Invalid_opcode);
  check_int "eip at the ud2" 0x101 regs.Cpu.eip

let test_cpu_unknown_opcode () =
  let mem_code = Bytes.of_string "\xde" in
  let _, fetch, read_u32, write_u32 = flat_machine mem_code in
  let regs = { Cpu.eip = 0x100; ebp = 0; esp = 0x1f00 } in
  Cpu.push ~write_u32 regs Cpu.sentinel_return;
  let r =
    Cpu.run ~decode:(Cpu.decoder_of_fetch fetch) ~read_u32 ~write_u32
      ~is_trap:(fun _ -> false) ~trace:None
      ~cycles:(ref 0) ~dispatch:(Queue.create ()) regs
  in
  check_bool "unknown is invalid opcode" true (r = Cpu.Invalid_opcode)

let test_cpu_breakpoint_and_skip () =
  let insns = [ Fc_isa.Insn.Nop; Fc_isa.Insn.Nop; Fc_isa.Insn.Ret ] in
  let _, fetch, read_u32, write_u32 = flat_machine (encode_insns insns) in
  let regs = { Cpu.eip = 0x100; ebp = 0; esp = 0x1f00 } in
  Cpu.push ~write_u32 regs Cpu.sentinel_return;
  let run ?skip_bp () =
    Cpu.run ~decode:(Cpu.decoder_of_fetch fetch) ~read_u32 ~write_u32
      ~is_trap:(fun a -> a = 0x101)
      ~trace:None ~cycles:(ref 0) ~dispatch:(Queue.create ()) ?skip_bp regs
  in
  (match run () with
  | Cpu.Breakpoint a -> check_int "bp addr" 0x101 a
  | r -> Alcotest.failf "expected breakpoint, got %s" (Format.asprintf "%a" Cpu.pp_exit r));
  check_int "eip unchanged" 0x101 regs.Cpu.eip;
  match run ~skip_bp:0x101 () with
  | Cpu.Returned -> ()
  | _ -> Alcotest.fail "expected resume to completion"

let test_cpu_branch_oracle () =
  let open Fc_isa.Insn in
  (* jcc +1 over a nop, then ret *)
  let insns = [ Jcc_rel 1; Nop; Ret ] in
  let _, fetch, read_u32, write_u32 = flat_machine (encode_insns insns) in
  let run oracle =
    let regs = { Cpu.eip = 0x100; ebp = 0; esp = 0x1f00 } in
    Cpu.push ~write_u32 regs Cpu.sentinel_return;
    let cycles = ref 0 in
    let r =
      Cpu.run ~decode:(Cpu.decoder_of_fetch fetch) ~read_u32 ~write_u32
        ~is_trap:(fun _ -> false) ~trace:None ~branch:oracle ~cycles
        ~dispatch:(Queue.create ()) regs
    in
    (r, !cycles)
  in
  let r_taken, c_taken = run (fun _ -> true) in
  let r_fall, c_fall = run (fun _ -> false) in
  check_bool "both return" true (r_taken = Cpu.Returned && r_fall = Cpu.Returned);
  (* not taken executes one extra instruction (the nop) *)
  check_int "fallthrough executes the cold block" (c_taken + 1) c_fall;
  (* the oracle is queried with the jcc's own address *)
  let asked = ref (-1) in
  let _ = run (fun a -> asked := a; true) in
  check_int "oracle sees the jcc address" 0x100 !asked

let test_cpu_blocked_advances () =
  let r, regs, _ = run_flat [ Fc_isa.Insn.Yield 7; Fc_isa.Insn.Ret ] in
  check_bool "blocked" true (r = Cpu.Blocked 7);
  check_int "eip past yield" 0x102 regs.Cpu.eip

let test_cpu_dispatch () =
  (* indirect call to 0x110 (a ret there), then ret *)
  let open Fc_isa.Insn in
  let code = Bytes.make 0x20 '\x90' in
  ignore (encode_into code 0 Call_indirect);
  ignore (encode_into code 2 Ret);
  Bytes.set_uint8 code 0x10 0xc3;
  let _, fetch, read_u32, write_u32 = flat_machine code in
  let regs = { Cpu.eip = 0x100; ebp = 0; esp = 0x1f00 } in
  Cpu.push ~write_u32 regs Cpu.sentinel_return;
  let q = Queue.create () in
  Queue.add 0x110 q;
  let r =
    Cpu.run ~decode:(Cpu.decoder_of_fetch fetch) ~read_u32 ~write_u32
      ~is_trap:(fun _ -> false) ~trace:None
      ~cycles:(ref 0) ~dispatch:q regs
  in
  check_bool "returned" true (r = Cpu.Returned);
  check_bool "queue drained" true (Queue.is_empty q)

let test_cpu_dispatch_underflow () =
  let r, _, _ = run_flat [ Fc_isa.Insn.Call_indirect ] in
  check_bool "underflow fault" true (r = Cpu.Fault (Cpu.Dispatch_underflow 0x100))

let test_cpu_unmapped_code () =
  let r, _, _ = run_flat [ Fc_isa.Insn.Jmp_rel 0x70 ] in
  (* jmp beyond the mapped window after a while: jmp to 0x172 (still mapped,
     zeros) → unknown opcode 0 is invalid-opcode, so instead jump out of
     range directly *)
  ignore r;
  let open Fc_isa.Insn in
  let code = encode_insns [ Call_rel 0x4000 ] in
  let _, fetch, read_u32, write_u32 = flat_machine code in
  let regs = { Cpu.eip = 0x100; ebp = 0; esp = 0x1f00 } in
  Cpu.push ~write_u32 regs Cpu.sentinel_return;
  match
    Cpu.run ~decode:(Cpu.decoder_of_fetch fetch) ~read_u32 ~write_u32
      ~is_trap:(fun _ -> false) ~trace:None
      ~cycles:(ref 0) ~dispatch:(Queue.create ()) regs
  with
  | Cpu.Fault (Cpu.Unmapped_code a) -> check_int "fault addr" 0x4105 a
  | r -> Alcotest.failf "expected unmapped fault: %s" (Format.asprintf "%a" Cpu.pp_exit r)

let test_cpu_runaway () =
  (* an infinite loop trips the instruction budget *)
  let open Fc_isa.Insn in
  let insns = [ Jmp_rel (-2) ] in
  let _, fetch, read_u32, write_u32 = flat_machine (encode_insns insns) in
  let regs = { Cpu.eip = 0x100; ebp = 0; esp = 0x1f00 } in
  Cpu.push ~write_u32 regs Cpu.sentinel_return;
  match
    Cpu.run ~decode:(Cpu.decoder_of_fetch fetch) ~read_u32 ~write_u32
      ~is_trap:(fun _ -> false) ~trace:None
      ~cycles:(ref 0) ~dispatch:(Queue.create ()) ~max_instr:1000 regs
  with
  | Cpu.Fault Cpu.Runaway -> ()
  | _ -> Alcotest.fail "expected runaway"

(* ------------------------------------------------------------------ *)
(* Os: boot, syscalls, scheduling, interrupts                          *)
(* ------------------------------------------------------------------ *)

let test_os_boot () =
  let os = fresh_os () in
  check_int "default modules loaded" 4 (List.length (Os.modules os));
  let pid, comm = Os.vmi_current_task os in
  check_int "idle pid" 0 pid;
  Alcotest.(check string) "idle comm" "swapper" comm;
  check_bool "kvm_clock resolvable" true (Os.resolve os "kvm_clock_get_cycles" <> None);
  check_bool "vmi sees modules" true (List.length (Os.vmi_module_list os) = 4)

let test_os_simple_syscalls () =
  let os = fresh_os () in
  let p =
    Os.spawn os ~name:"hello"
      [ Action.Syscall "getpid"; Action.Compute 100; Action.Syscall "getpid"; Action.Exit ]
  in
  Os.run os;
  check_bool "exited" true (Process.is_exited p);
  check_int "three syscalls (2 getpid + exit)" 3 p.Process.syscall_count

let test_os_every_syscall_variant_executes () =
  (* The dispatch-count contract: every variant must run to completion
     (blocking ones must block then finish) with its declared queue. *)
  List.iter
    (fun (sc : Fc_kernel.Syscalls.t) ->
      if sc.sc_name <> "exit" then begin
        let os = fresh_os () in
        let p = Os.spawn os ~name:"probe" [ Action.Syscall sc.sc_name; Action.Exit ] in
        (try Os.run os
         with Os.Guest_panic m -> Alcotest.failf "%s panicked: %s" sc.sc_name m);
        if not (Process.is_exited p) then Alcotest.failf "%s did not finish" sc.sc_name
      end)
    Fc_kernel.Syscalls.all

let test_os_blocking_syscall_resumes () =
  let os = fresh_os () in
  let p =
    Os.spawn os ~name:"poller" [ Action.Syscall "poll:pipe"; Action.Syscall "getpid"; Action.Exit ]
  in
  Os.run os;
  check_bool "exited" true (Process.is_exited p);
  check_int "syscalls" 3 p.Process.syscall_count

let test_os_two_processes_round_robin () =
  let os = fresh_os () in
  let mk name = Os.spawn os ~name (Action.repeat 5 [ Action.Syscall "getpid"; Action.Compute 50 ] @ [ Action.Exit ]) in
  let a = mk "alpha" and b = mk "beta" in
  Os.run os;
  check_bool "both exited" true (Process.is_exited a && Process.is_exited b);
  check_bool "switched between them" true (Os.context_switches os >= 2)

let test_os_current_task_vmi_tracks_switches () =
  let os = fresh_os ~config:{ Os.default_config with wake_delay = 3 } () in
  let _a = Os.spawn os ~name:"alpha" [ Action.Syscall "nanosleep"; Action.Exit ] in
  let _b = Os.spawn os ~name:"beta" [ Action.Syscall "nanosleep"; Action.Exit ] in
  let seen = Hashtbl.create 4 in
  Os.set_exit_handler os (fun os _regs -> function
    | Os.Exit_breakpoint _ ->
        let _, comm = Os.vmi_current_task os in
        Hashtbl.replace seen comm ();
        Os.Resume
    | Os.Exit_invalid_opcode | Os.Exit_fault _ -> Os.Panic "unexpected");
  Os.set_trap os (Os.resolve_exn os "__switch_to");
  Os.run os;
  check_bool "saw alpha" true (Hashtbl.mem seen "alpha");
  check_bool "saw beta" true (Hashtbl.mem seen "beta");
  check_bool "saw swapper idling" true (Hashtbl.mem seen "swapper")

let test_os_timer_interrupts_fire () =
  let os = fresh_os () in
  let hits = ref 0 in
  let timer_addr = Os.resolve_exn os "timer_interrupt" in
  Os.set_trace os (Some (fun addr _ -> if addr = timer_addr then incr hits));
  let p = Os.spawn os ~name:"spin" (Action.repeat 50 [ Action.Compute 20_000 ] @ [ Action.Exit ]) in
  Os.run os;
  check_bool "exited" true (Process.is_exited p);
  check_bool "timer fired repeatedly" true (!hits >= 5)

let test_os_clocksource_selects_kvmclock () =
  let os = fresh_os ~config:Os.runtime_config () in
  let hits = ref 0 in
  let kvm = Os.resolve_exn os "kvm_clock_get_cycles" in
  Os.set_trace os (Some (fun addr _ -> if addr = kvm then incr hits));
  let _ = Os.spawn os ~name:"spin" (Action.repeat 30 [ Action.Compute 20_000 ] @ [ Action.Exit ]) in
  Os.run os;
  check_bool "kvmclock path executed" true (!hits >= 1)

let test_os_inject_irq () =
  let os = fresh_os () in
  let hits = ref 0 in
  let addr = Os.resolve_exn os "packet_rcv" in
  Os.set_trace os (Some (fun a _ -> if a = addr then incr hits));
  Os.inject_irq os Irq_paths.Net_rx_sniffed_tcp;
  check_int "packet tap hit" 1 !hits

let test_os_itimer_path () =
  let os = fresh_os () in
  let hits = ref 0 in
  let it = Os.resolve_exn os "it_real_fn" in
  Os.set_trace os (Some (fun a _ -> if a = it then incr hits));
  let p =
    Os.spawn os ~name:"cymo"
      ([ Action.Syscall "setitimer" ] @ Action.repeat 30 [ Action.Compute 20_000 ] @ [ Action.Exit ])
  in
  Os.schedule_at_round os 1 (fun os -> Os.arm_itimer os ~pid:p.Process.pid);
  Os.run os;
  check_bool "it_real_fn fired" true (!hits >= 1)

let test_os_module_load_hide () =
  let os = fresh_os () in
  let before = List.length (Os.vmi_module_list os) in
  Os.hide_module os "kvmclock";
  let after = Os.vmi_module_list os in
  check_int "one fewer visible" (before - 1) (List.length after);
  check_bool "kvmclock gone from VMI" true
    (not (List.exists (fun (n, _, _) -> n = "kvmclock") after));
  (* OS ground truth still has it, and code still executes *)
  check_bool "os still tracks it" true
    (List.exists (fun m -> m.Os.mod_name = "kvmclock") (Os.modules os));
  Os.inject_irq os Irq_paths.Net_rx_sniffed_udp (* af_packet still mapped *)

let test_os_rootkit_module_load () =
  let os = fresh_os () in
  let fns =
    [
      Fc_kernel.Kfunc.v ~size:96 ~sub:"rk" "rk_hook" [ Fc_kernel.Kfunc.C "strnlen" ];
    ]
  in
  let info = Os.load_module_fns os ~name:"rk" fns in
  check_bool "loaded above previous modules" true
    (info.Os.unit_image.Fc_isa.Asm.base >= Layout.module_area_base);
  check_bool "resolvable" true (Os.resolve os "rk_hook" <> None);
  (* execute it via a syscall rewrite *)
  let hits = ref 0 in
  let rk = Os.resolve_exn os "rk_hook" in
  Os.set_trace os (Some (fun a _ -> if a = rk then incr hits));
  Os.set_syscall_rewriter os (fun sc ->
      if sc.Fc_kernel.Syscalls.sc_name = "getpid" then Some ("rk_hook", []) else None);
  let _ = Os.spawn os ~name:"victim" [ Action.Syscall "getpid"; Action.Exit ] in
  Os.run os;
  check_bool "hook executed" true (!hits = 1)

let test_os_guest_panic_without_handler () =
  let os = fresh_os () in
  (* Punch a hole in the EPT for the text page containing sys_getpid's
     entry: execution must fault. *)
  let addr = Os.resolve_exn os "sys_getpid" in
  let gpa_page = Layout.page_of (Layout.gva_to_gpa addr) in
  let dir = Fc_mem.Ept.dir_of_page gpa_page in
  let table = Option.get (Fc_mem.Ept.get_dir (Os.ept os) ~dir) in
  Fc_mem.Ept.table_set table ~idx:(Fc_mem.Ept.slot_of_page gpa_page) None;
  let _ = Os.spawn os ~name:"crasher" [ Action.Syscall "getpid"; Action.Exit ] in
  match Os.run os with
  | () -> Alcotest.fail "expected panic"
  | exception Os.Guest_panic _ -> ()

(* A hypervisor that resumes every exit without repairing anything.  The
   retried instruction exits again unchanged, and that second exit is
   the guest's to take: the task oopses and dies where it stood, every
   other task runs to completion, nothing panics. *)
let resume_everything os =
  let exits = ref 0 in
  Os.set_exit_handler os (fun _ _ -> function
    | Os.Exit_breakpoint _ -> Os.Resume
    | Os.Exit_invalid_opcode | Os.Exit_fault _ ->
        incr exits;
        Os.Resume);
  exits

let check_oopsed os ~exits crasher bystander =
  Os.run ~max_rounds:1_000 os;
  check_int "one resumed exit, then the oops" 1 !exits;
  check_bool "crasher dead" true (Process.is_exited crasher);
  check_bool "crasher died before its exit" true (crasher.Process.script <> []);
  check_bool "bystander finished its script" true
    (Process.is_exited bystander && bystander.Process.script = []);
  Alcotest.(check (option int))
    "one kill, charged to the crasher" (Some 1)
    (Fc_obs.Metrics.find (Fc_obs.Obs.metrics (Os.obs os)) "os.oops_kills{crasher}");
  Alcotest.(check (option int))
    "none to the bystander" None
    (Fc_obs.Metrics.find (Fc_obs.Obs.metrics (Os.obs os)) "os.oops_kills{bystander}")

let spawn_pair os =
  let crasher =
    Os.spawn os ~name:"crasher"
      [ Action.Syscall "getpid"; Action.Compute 100; Action.Exit ]
  in
  (* no exit syscall: its path shares a text page with sys_getpid *)
  let bystander =
    Os.spawn os ~name:"bystander" (Action.repeat 5 [ Action.Compute 1_000 ])
  in
  (crasher, bystander)

let test_os_unchanged_invalid_opcode_oopses () =
  let os = fresh_os () in
  (* UD2 over sys_getpid's first instruction, in guest RAM *)
  let gpa = Layout.gva_to_gpa (Os.resolve_exn os "sys_getpid") in
  let frame = Option.get (Os.ram_frame os ~gpa_page:(Layout.page_of gpa)) in
  let hpa = (frame * Layout.page_size) + (gpa mod Layout.page_size) in
  Fc_mem.Phys_mem.write_byte (Os.phys os) hpa 0x0f;
  Fc_mem.Phys_mem.write_byte (Os.phys os) (hpa + 1) 0x0b;
  let exits = resume_everything os in
  let crasher, bystander = spawn_pair os in
  check_oopsed os ~exits crasher bystander

let test_os_unchanged_fault_oopses () =
  let os = fresh_os () in
  (* the EPT hole of the panic test above, under a resuming handler *)
  let gpa_page = Layout.page_of (Layout.gva_to_gpa (Os.resolve_exn os "sys_getpid")) in
  let dir = Fc_mem.Ept.dir_of_page gpa_page in
  let table = Option.get (Fc_mem.Ept.get_dir (Os.ept os) ~dir) in
  Fc_mem.Ept.table_set table ~idx:(Fc_mem.Ept.slot_of_page gpa_page) None;
  let exits = resume_everything os in
  let crasher, bystander = spawn_pair os in
  check_oopsed os ~exits crasher bystander

let test_os_schedule_at_round () =
  let os = fresh_os () in
  let fired = ref (-1) in
  Os.schedule_at_round os 3 (fun os -> fired := Os.round os);
  let _ =
    Os.spawn os ~name:"w" (Action.repeat 10 [ Action.Syscall "nanosleep" ] @ [ Action.Exit ])
  in
  Os.run os;
  check_bool "hook fired at >= round 3" true (!fired >= 3)

let test_os_fault_action () =
  let os = fresh_os () in
  let hits = ref 0 in
  let f = Os.resolve_exn os "handle_mm_fault" in
  Os.set_trace os (Some (fun a _ -> if a = f then incr hits));
  let _ = Os.spawn os ~name:"faulty" [ Action.Fault; Action.Fault; Action.Exit ] in
  Os.run os;
  check_int "two faults" 2 !hits

let test_os_sleep_action_duration () =
  (* Sleep parks for the requested number of rounds, not the default *)
  let os = fresh_os () in
  let p = Os.spawn os ~name:"sleeper" [ Action.Sleep 6; Action.Exit ] in
  Os.run os;
  check_bool "exited" true (Process.is_exited p);
  check_bool "took at least 6 rounds" true (Os.round os >= 6)

let test_os_module_area_exhaustion () =
  let os = fresh_os () in
  let big =
    (* each module ~64KB of functions + guard page; area is 1MB *)
    List.init 120 (fun i ->
        Fc_kernel.Kfunc.v ~size:512 ~sub:"big" (Printf.sprintf "big_fn_%03d" i) [])
  in
  match
    List.init 20 (fun i -> Os.load_module_fns os ~name:(Printf.sprintf "big%d" i) big)
  with
  | exception Os.Guest_panic _ -> ()
  | _ -> Alcotest.fail "expected module area exhaustion"

let test_os_spawn_limit () =
  let os = fresh_os () in
  match
    for _ = 1 to 250 do
      ignore (Os.spawn os ~name:"p" [ Action.Exit ])
    done
  with
  | exception Os.Guest_panic _ -> ()
  | () -> Alcotest.fail "expected spawn limit"

let test_os_quantum_interleaving () =
  (* with quantum 1 and two CPU-bound processes, the scheduler alternates *)
  let os = fresh_os ~config:{ Os.default_config with quantum = 1 } () in
  let mk name = Os.spawn os ~name (Action.repeat 5 [ Action.Compute 100 ] @ [ Action.Exit ]) in
  let _a = mk "alpha" and _b = mk "beta" in
  Os.run os;
  check_bool "many switches under quantum 1" true (Os.context_switches os >= 8)

let test_os_max_rounds_guard () =
  let os = fresh_os ~config:{ Os.default_config with wake_delay = 10 } () in
  let _ = Os.spawn os ~name:"napper" (Action.repeat 50 [ Action.Sleep 10 ] @ [ Action.Exit ]) in
  match Os.run ~max_rounds:5 os with
  | exception Os.Guest_panic _ -> ()
  | () -> Alcotest.fail "expected round budget exhaustion"

let test_os_until_stops_early () =
  let os = fresh_os () in
  let p = Os.spawn os ~name:"w" (Action.repeat 50 [ Action.Syscall "getpid" ] @ [ Action.Exit ]) in
  Os.run ~until:(fun os -> Os.round os >= 3) os;
  check_bool "stopped before completion" true (not (Process.is_exited p));
  (* and can be resumed *)
  Os.run os;
  check_bool "finishes when resumed" true (Process.is_exited p)

let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

let suites =
  [
    ( "machine.cpu",
      [
        tc "trivial path returns" test_cpu_returned;
        tc "frame chain" test_cpu_frame_chain;
        tc "ud2 exits with invalid opcode" test_cpu_ud2;
        tc "unknown opcode is invalid opcode" test_cpu_unknown_opcode;
        tc "breakpoint fires and resumes with skip" test_cpu_breakpoint_and_skip;
        tc "yield blocks with advanced eip" test_cpu_blocked_advances;
        tc "conditional branch oracle" test_cpu_branch_oracle;
        tc "indirect dispatch" test_cpu_dispatch;
        tc "dispatch underflow faults" test_cpu_dispatch_underflow;
        tc "unmapped code faults" test_cpu_unmapped_code;
        tc "runaway execution faults" test_cpu_runaway;
      ] );
    ( "machine.os",
      [
        tc "boot" test_os_boot;
        tc "simple syscalls run" test_os_simple_syscalls;
        tc_slow "every syscall variant completes" test_os_every_syscall_variant_executes;
        tc "blocking syscall resumes" test_os_blocking_syscall_resumes;
        tc "two processes round-robin" test_os_two_processes_round_robin;
        tc "VMI tracks context switches" test_os_current_task_vmi_tracks_switches;
        tc "timer interrupts fire" test_os_timer_interrupts_fire;
        tc "runtime clocksource uses kvmclock" test_os_clocksource_selects_kvmclock;
        tc "irq injection" test_os_inject_irq;
        tc "itimer expiry path" test_os_itimer_path;
        tc "module hide (VMI vs ground truth)" test_os_module_load_hide;
        tc "rootkit module load + syscall rewrite" test_os_rootkit_module_load;
        tc "guest panic without handler" test_os_guest_panic_without_handler;
        tc "unchanged resume of an invalid opcode oopses the task"
          test_os_unchanged_invalid_opcode_oopses;
        tc "unchanged resume of a fault oopses the task"
          test_os_unchanged_fault_oopses;
        tc "schedule_at_round" test_os_schedule_at_round;
        tc "fault action" test_os_fault_action;
        tc "sleep action duration" test_os_sleep_action_duration;
        tc "module area exhaustion" test_os_module_area_exhaustion;
        tc "spawn limit" test_os_spawn_limit;
        tc "quantum interleaving" test_os_quantum_interleaving;
        tc "max_rounds guard" test_os_max_rounds_guard;
        tc "until predicate stops and resumes" test_os_until_stops_early;
      ] );
  ]
