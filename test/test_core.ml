module Action = Fc_machine.Action
module Process = Fc_machine.Process
module Os = Fc_machine.Os
module Image = Fc_kernel.Image
module Layout = Fc_kernel.Layout
module Hyp = Fc_hypervisor.Hypervisor
module Profiler = Fc_profiler.Profiler
module View_config = Fc_profiler.View_config
module View = Fc_core.View
module Facechange = Fc_core.Facechange
module Recovery_log = Fc_core.Recovery_log
module Range_list = Fc_ranges.Range_list

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let image = lazy (Image.build_exn ())

(* A small app used across tests: proc reads + tty writes, like top. *)
let toplike_script n =
  Action.repeat n
    [
      Action.Syscall "open:proc";
      Action.Syscall "read:proc:stat";
      Action.Syscall "read:proc:pid";
      Action.Syscall "close";
      Action.Syscall "write:tty";
      Action.Compute 2_000;
    ]
  @ [ Action.Exit ]

(* Profile with a longer session than any runtime test uses, so the
   background interrupt mix is fully captured (profiling sessions run
   until coverage saturates, as in the paper). *)
let profile_toplike () =
  Profiler.profile_app (Lazy.force image) ~name:"toplike" (toplike_script 24)

let toplike_config = lazy (profile_toplike ())

(* Boot a runtime guest with FACE-CHANGE enabled. *)
let runtime_guest ?(config = Os.runtime_config) ?opts () =
  let os = Os.create ~config (Lazy.force image) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable ?opts hyp in
  (os, hyp, fc)

(* ------------------------------------------------------------------ *)
(* Profiler                                                            *)
(* ------------------------------------------------------------------ *)

let test_profile_produces_ranges () =
  let cfg = Lazy.force toplike_config in
  check_bool "nonempty" true (View_config.size cfg > 0);
  let img = Lazy.force image in
  let mem name =
    Range_list.mem cfg.View_config.ranges Fc_ranges.Segment.Base_kernel
      (Image.addr_of_exn img name)
  in
  check_bool "proc read path profiled" true (mem "proc_stat_show");
  check_bool "tty write path profiled" true (mem "tty_write");
  check_bool "syscall gate profiled" true (mem "syscall_call");
  check_bool "scheduler profiled (context switches)" true (mem "schedule");
  check_bool "interrupt path included" true (mem "timer_interrupt");
  check_bool "udp path NOT profiled" false (mem "udp_recvmsg");
  check_bool "poll chain NOT profiled" false (mem "do_sys_poll")

let test_profile_interrupt_ranges_shared () =
  (* background net interrupts execute in the app's view even though the
     app never touches the network *)
  let cfg = Lazy.force toplike_config in
  let img = Lazy.force image in
  check_bool "net rx in view via interrupts" true
    (Range_list.mem cfg.View_config.ranges Fc_ranges.Segment.Base_kernel
       (Image.addr_of_exn img "ip_rcv"))

let test_profile_excludes_kvmclock () =
  let cfg = Lazy.force toplike_config in
  check_bool "kvmclock module never profiled under QEMU" false
    (List.exists
       (fun seg -> seg = Fc_ranges.Segment.Kernel_module "kvmclock")
       (Range_list.segments cfg.View_config.ranges))

let test_view_config_roundtrip () =
  let cfg = Lazy.force toplike_config in
  match View_config.of_string (View_config.to_string cfg) with
  | Error e -> Alcotest.fail e
  | Ok cfg' ->
      Alcotest.(check string) "app" cfg.View_config.app cfg'.View_config.app;
      check_bool "ranges equal" true
        (Range_list.equal cfg.View_config.ranges cfg'.View_config.ranges)

let test_view_config_save_load () =
  let cfg = Lazy.force toplike_config in
  let path = Filename.temp_file "fc_view" ".conf" in
  View_config.save cfg path;
  (match View_config.load path with
  | Error e -> Alcotest.fail e
  | Ok cfg' -> check_int "size preserved" (View_config.size cfg) (View_config.size cfg'));
  Sys.remove path

let test_view_config_rejects_garbage () =
  (match View_config.of_string "nonsense here\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match View_config.of_string "base 0x0 0x10\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected missing-app error"

(* ------------------------------------------------------------------ *)
(* View materialization                                                *)
(* ------------------------------------------------------------------ *)

let test_view_ud2_fill_and_load () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let img = Lazy.force image in
  let f = Image.addr_of_exn img "sys_getpid" in
  let cfg =
    View_config.make ~app:"mini"
      (Range_list.add_range Range_list.empty Fc_ranges.Segment.Base_kernel
         ~lo:(f + 4) ~hi:(f + 8))
  in
  let v = View.build ~hyp cfg in
  (* whole containing function loaded although only 4 bytes profiled *)
  check_bool "function start loaded" true (View.read_code v ~gva:f = Some 0x55);
  (* an unprofiled function elsewhere is UD2 *)
  let g = Image.addr_of_exn img "udp_recvmsg" in
  check_bool "udp is ud2 (even)" true (View.read_code v ~gva:g = Some 0x0f);
  check_bool "udp is ud2 (odd)" true (View.read_code v ~gva:(g + 1) = Some 0x0b);
  check_bool "covers text" true (View.covers v ~gva:g);
  check_bool "does not cover data" false (View.covers v ~gva:Layout.data_base);
  View.destroy v

let test_view_raw_load_ablation () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let img = Lazy.force image in
  let f = Image.addr_of_exn img "sys_getpid" in
  let cfg =
    View_config.make ~app:"mini"
      (Range_list.add_range Range_list.empty Fc_ranges.Segment.Base_kernel
         ~lo:(f + 4) ~hi:(f + 8))
  in
  let v = View.build ~hyp ~whole_function_load:false cfg in
  check_bool "function start NOT loaded" true (View.read_code v ~gva:f = Some 0x0f);
  check_bool "profiled bytes loaded" true
    (View.read_code v ~gva:(f + 4) <> Some 0x0f || View.read_code v ~gva:(f + 5) <> Some 0x0b);
  View.destroy v

let test_view_module_pages_ud2 () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let v = View.build ~hyp (View_config.make ~app:"mini" Range_list.empty) in
  let kvm = Os.resolve_exn os "kvm_clock_get_cycles" in
  check_bool "module code ud2 in view" true (View.read_code v ~gva:kvm = Some 0x0f);
  check_bool "module page covered" true (View.covers v ~gva:kvm);
  View.destroy v

let test_view_destroy_frees_frames () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let before = Fc_mem.Phys_mem.live_frames (Os.phys os) in
  let v = View.build ~hyp (View_config.make ~app:"mini" Range_list.empty) in
  check_bool "allocated" true (Fc_mem.Phys_mem.live_frames (Os.phys os) > before);
  View.destroy v;
  check_int "freed" before (Fc_mem.Phys_mem.live_frames (Os.phys os))

let test_view_module_relative_load () =
  (* a config naming module-relative ranges loads code at the module's
     current base *)
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let base =
    match List.find_opt (fun (n, _, _) -> n = "kvmclock") (Hyp.module_list hyp) with
    | Some (_, b, _) -> b
    | None -> Alcotest.fail "kvmclock not visible"
  in
  let cfg =
    View_config.make ~app:"mini"
      (Range_list.add_range Range_list.empty
         (Fc_ranges.Segment.Kernel_module "kvmclock") ~lo:0 ~hi:8)
  in
  let v = View.build ~hyp cfg in
  check_bool "module function loaded at runtime base" true
    (View.read_code v ~gva:base = Some 0x55);
  View.destroy v

(* ------------------------------------------------------------------ *)
(* Runtime: robustness + benign recovery                               *)
(* ------------------------------------------------------------------ *)

let test_runtime_robustness_kvmclock_only () =
  (* Same workload as profiling, under the runtime (KVM) environment:
     the app must run to completion, and the only recoveries are the
     para-virtual clock chain the paper describes (§III-B3 case i). *)
  let os, _hyp, fc = runtime_guest () in
  let cfg = Lazy.force toplike_config in
  let (_ : int) = Facechange.load_view fc cfg in
  let p = Os.spawn os ~name:"toplike" (toplike_script 6) in
  Os.run os;
  check_bool "completed" true (Process.is_exited p);
  let names = Recovery_log.recovered_names (Facechange.log fc) in
  check_bool "some benign recovery happened" true (names <> []);
  List.iter
    (fun n ->
      if
        not
          (List.mem n
             [ "kvm_clock_get_cycles"; "kvm_clock_read"; "pvclock_clocksource_read"; "native_read_tsc" ])
      then Alcotest.failf "unexpected recovery: %s" n)
    names;
  (* chronological order of first occurrences matches the paper *)
  (match names with
  | "kvm_clock_get_cycles" :: "kvm_clock_read" :: "pvclock_clocksource_read"
    :: "native_read_tsc" :: _ -> ()
  | _ -> Alcotest.failf "unexpected chain: %s" (String.concat " -> " names));
  ()

let test_interrupt_context_classification () =
  (* A compute-only process can only reach the kvmclock chain through
     timer interrupts, so its recoveries must be classified as interrupt
     context — the paper's "inspect the current call stack to determine
     whether the current execution is in interrupt context". *)
  let os, _hyp, fc = runtime_guest () in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  let p =
    Os.spawn os ~name:"toplike" (Action.repeat 20 [ Action.Compute 20_000 ] @ [ Action.Exit ])
  in
  Os.run os;
  check_bool "completed" true (Process.is_exited p);
  let entries = Recovery_log.entries (Facechange.log fc) in
  check_bool "kvmclock recovered" true (entries <> []);
  List.iter
    (fun e ->
      if not e.Recovery_log.interrupt_context then
        Alcotest.failf "recovery of %s not flagged interrupt-context"
          (match e.Recovery_log.recovered with (_, _, s) :: _ -> s | [] -> "?"))
    entries

let test_runtime_no_recovery_same_clocksource () =
  (* With the profiling clocksource at runtime, the same workload causes
     zero recoveries: the robustness goal, exactly. *)
  let os, _hyp, fc = runtime_guest ~config:Os.profiling_config () in
  let cfg = Lazy.force toplike_config in
  let (_ : int) = Facechange.load_view fc cfg in
  let p = Os.spawn os ~name:"toplike" (toplike_script 6) in
  Os.run os;
  check_bool "completed" true (Process.is_exited p);
  check_int "no recoveries" 0 (Recovery_log.count (Facechange.log fc))

let test_runtime_detects_out_of_view_syscall () =
  (* The strictness goal: a UDP server payload inside a toplike process
     trips recovery with a meaningful backtrace (Fig. 4's shape). *)
  let os, _hyp, fc = runtime_guest ~config:Os.profiling_config () in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  let payload =
    [
      Action.Syscall "socket:udp";
      Action.Syscall "bind:udp";
      Action.Syscall "recvfrom:udp";
    ]
  in
  let p = Os.spawn os ~name:"toplike" (toplike_script 2 |> fun s -> payload @ s) in
  Os.run os;
  check_bool "completed (recovery is silent)" true (Process.is_exited p);
  let names = Recovery_log.recovered_names (Facechange.log fc) in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then Alcotest.failf "missing recovery of %s" expected)
    [ "inet_create"; "sys_bind"; "inet_bind"; "udp_v4_get_port"; "udp_recvmsg" ];
  (* backtraces reach the syscall gate *)
  let some_bt =
    List.exists
      (fun e ->
        List.exists
          (fun f ->
            match String.index_opt f.Recovery_log.rendered '<' with
            | Some _ ->
                let r = f.Recovery_log.rendered in
                let has sub =
                  let n = String.length sub in
                  let m = String.length r in
                  let rec go i = i + n <= m && (String.sub r i n = sub || go (i + 1)) in
                  go 0
                in
                has "syscall_call"
            | None -> false)
          e.Recovery_log.backtrace)
      (Recovery_log.entries (Facechange.log fc))
  in
  check_bool "some backtrace reaches syscall_call" true some_bt

let test_union_view_blind_spot () =
  (* Under the union view (toplike ∪ a network app), the UDP payload goes
     entirely undetected — the paper's system-wide minimization blind
     spot. *)
  let apachelike =
    Profiler.profile_app (Lazy.force image) ~name:"apachelike"
      (Action.repeat 4
         [
           Action.Syscall "socket:udp";
           Action.Syscall "bind:udp";
           Action.Syscall "recvfrom:udp";
           Action.Syscall "sendto:udp";
         ]
      @ [ Action.Exit ])
  in
  let union =
    View_config.union ~app:"toplike" [ Lazy.force toplike_config; apachelike ]
  in
  let os, _hyp, fc = runtime_guest ~config:Os.profiling_config () in
  let (_ : int) = Facechange.load_view fc union in
  let payload =
    [ Action.Syscall "socket:udp"; Action.Syscall "bind:udp"; Action.Syscall "recvfrom:udp" ]
  in
  let p = Os.spawn os ~name:"toplike" (payload @ toplike_script 2) in
  Os.run os;
  check_bool "completed" true (Process.is_exited p);
  check_int "attack invisible under union view" 0 (Recovery_log.count (Facechange.log fc))

(* ------------------------------------------------------------------ *)
(* Fig. 3: cross-view recovery, lazy vs instant                        *)
(* ------------------------------------------------------------------ *)

let cross_view_scenario ?opts () =
  (* wake_delay 3 parks the blocked poller long enough that the scheduler
     switches to the idle task and back — a real context switch, which is
     what installs the hot-plugged view while the process sits mid-kernel *)
  let os, _hyp, fc =
    runtime_guest ~config:{ Os.profiling_config with wake_delay = 3 } ?opts ()
  in
  let script =
    [
      Action.Syscall "getpid";
      Action.Syscall "poll:pipe" (* blocks inside pipe_poll *);
      Action.Syscall "getpid";
      Action.Exit;
    ]
  in
  let p = Os.spawn os ~name:"toplike" script in
  (* hot-plug the view while the process is blocked mid-kernel *)
  Os.schedule_at_round os 2 (fun _ ->
      let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
      ());
  (os, fc, p)

let test_cross_view_lazy_and_instant () =
  let os, fc, p = cross_view_scenario () in
  Os.run os;
  check_bool "completed" true (Process.is_exited p);
  let entries = Recovery_log.entries (Facechange.log fc) in
  let pipe_entry =
    List.find_opt
      (fun e ->
        List.exists (fun (_, _, s) ->
            let has sub =
              let n = String.length sub and m = String.length s in
              let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
              go 0
            in
            has "pipe_poll")
          e.Recovery_log.recovered)
      entries
  in
  (match pipe_entry with
  | None -> Alcotest.fail "no pipe_poll recovery"
  | Some e ->
      (* sys_poll's return address is odd: instant recovery *)
      check_bool "sys_poll instantly recovered" true
        (List.exists
           (fun (_, _, s) ->
             let has sub =
               let n = String.length sub and m = String.length s in
               let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
               go 0
             in
             has "sys_poll" && not (has "do_sys_poll"))
           e.Recovery_log.instant);
      (* do_sys_poll's return address is even: NOT instant here *)
      check_bool "do_sys_poll not instant" false
        (List.exists
           (fun (_, _, s) ->
             let has sub =
               let n = String.length sub and m = String.length s in
               let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
               go 0
             in
             has "do_sys_poll")
           e.Recovery_log.instant));
  (* do_sys_poll later recovered lazily (its ud2 traps on return) *)
  check_bool "do_sys_poll recovered lazily" true
    (List.mem "do_sys_poll" (Recovery_log.recovered_names (Facechange.log fc)))

let test_cross_view_without_instant_recovery_misbehaves () =
  let opts = { Facechange.default_opts with instant_recovery = false } in
  let os, fc, _p = cross_view_scenario ~opts () in
  (* Without instant recovery the odd return into sys_poll misdecodes the
     UD2 fill as valid instructions and execution goes off the rails. *)
  match Os.run os with
  | () ->
      (* If it survived, it must have produced anomalous extra recoveries
         at addresses that are not real function starts. *)
      let names = Recovery_log.recovered_names (Facechange.log fc) in
      check_bool "execution misbehaved without instant recovery" true
        (List.length names > 3)
  | exception Os.Guest_panic _ -> ()

(* ------------------------------------------------------------------ *)
(* Switching mechanics                                                 *)
(* ------------------------------------------------------------------ *)

let test_switch_stats_and_same_view_opt () =
  let os, _hyp, fc = runtime_guest ~config:Os.profiling_config () in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  let mk () = Os.spawn os ~name:"toplike" (toplike_script 3) in
  let _a = mk () and _b = mk () in
  Os.run os;
  check_bool "switches happened" true (Facechange.switches fc > 0);
  check_bool "same-view optimization hit (both procs share the view)" true
    (Facechange.switch_skips fc > 0)

let test_deferred_switching () =
  let os, _hyp, fc = runtime_guest ~config:Os.profiling_config () in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  let _a = Os.spawn os ~name:"toplike" (toplike_script 3) in
  let _b = Os.spawn os ~name:"other" (toplike_script 3) in
  Os.run os;
  check_bool "custom-view switches deferred to resume-userspace" true
    (Facechange.deferred_switches fc > 0)

let test_switch_at_context_switch_ablation () =
  let opts = { Facechange.default_opts with switch_at_resume = false } in
  let os, _hyp, fc = runtime_guest ~config:Os.profiling_config ~opts () in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  let p = Os.spawn os ~name:"toplike" (toplike_script 3) in
  Os.run os;
  check_bool "completed" true (Process.is_exited p);
  check_int "nothing deferred" 0 (Facechange.deferred_switches fc)

let test_unload_and_disable () =
  let os, _hyp, fc = runtime_guest ~config:Os.profiling_config () in
  let phys_before = Fc_mem.Phys_mem.live_frames (Os.phys os) in
  let idx = Facechange.load_view fc (Lazy.force toplike_config) in
  check_int "bound" idx (Facechange.selector fc ~comm:"toplike");
  Facechange.unload_view fc idx;
  check_int "fallback to full" Facechange.full_view_index
    (Facechange.selector fc ~comm:"toplike");
  check_int "frames freed" phys_before (Fc_mem.Phys_mem.live_frames (Os.phys os));
  (* reload, then disable entirely; the guest keeps running fine *)
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  Facechange.disable fc;
  let p = Os.spawn os ~name:"toplike" (toplike_script 2) in
  Os.run os;
  check_bool "runs after disable" true (Process.is_exited p);
  check_int "no recovery after disable" 0 (Recovery_log.count (Facechange.log fc))

let test_full_view_processes_untouched () =
  (* a process with no view binding runs under the full view with zero
     recoveries even while another process is enforced *)
  let os, _hyp, fc = runtime_guest ~config:Os.profiling_config () in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  let free =
    Os.spawn os ~name:"freebird"
      [ Action.Syscall "socket:udp"; Action.Syscall "bind:udp"; Action.Exit ]
  in
  let bound = Os.spawn os ~name:"toplike" (toplike_script 2) in
  Os.run os;
  check_bool "both completed" true (Process.is_exited free && Process.is_exited bound);
  let bad =
    List.exists
      (fun e -> e.Recovery_log.comm = "freebird")
      (Recovery_log.entries (Facechange.log fc))
  in
  check_bool "no recovery attributed to the unbound process" false bad

(* ------------------------------------------------------------------ *)
(* Report + log persistence                                            *)
(* ------------------------------------------------------------------ *)

let attacked_log () =
  let os, _hyp, fc = runtime_guest () in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  let payload = [ Action.Syscall "socket:udp"; Action.Syscall "bind:udp" ] in
  let _ = Os.spawn os ~name:"toplike" (payload @ toplike_script 3) in
  Os.run os;
  Facechange.log fc

let test_report_classification () =
  let log = attacked_log () in
  let s = Fc_core.Report.summarize log in
  check_int "total consistent" s.Fc_core.Report.total (Recovery_log.count log);
  check_bool "benign kvmclock recoveries flagged" true
    (s.Fc_core.Report.benign_interrupt >= 1);
  check_bool "payload recoveries are unprofiled paths" true
    (s.Fc_core.Report.unprofiled >= 2);
  check_int "no hidden code" 0 s.Fc_core.Report.hidden_code;
  (* origins: the payload recoveries came through sys_socket / sys_bind *)
  check_bool "sys_bind origin" true
    (List.mem_assoc "sys_bind" s.Fc_core.Report.by_origin);
  check_bool "per-process attribution" true
    (List.mem_assoc "toplike" s.Fc_core.Report.by_process);
  let rendered = Fc_core.Report.render log in
  check_bool "render mentions triage" true
    (let n = String.length "triage" and m = String.length rendered in
     let rec go i = i + n <= m && (String.sub rendered i n = "triage" || go (i + 1)) in
     go 0)

let test_report_hidden_code () =
  (* a KBeast-style hidden module yields Hidden_code classification *)
  let entry =
    {
      Recovery_log.cycle = 0; pid = 1; comm = "bash"; view_app = "bash";
      fault_addr = 0xc0100000;
      recovered = [ (0xc0100000, 0xc0100040, "0xc0100000 <strnlen+0x0>") ];
      instant = []; backtrace = []; interrupt_context = false;
      unknown_frames = true;
    }
  in
  check_bool "classified as hidden code" true
    (Fc_core.Report.classify entry = Fc_core.Report.Hidden_code)

let test_log_roundtrip () =
  let log = attacked_log () in
  match Recovery_log.of_string (Recovery_log.to_string log) with
  | Error e -> Alcotest.fail e
  | Ok log' ->
      check_int "count" (Recovery_log.count log) (Recovery_log.count log');
      List.iter2
        (fun (a : Recovery_log.entry) (b : Recovery_log.entry) ->
          check_int "pid" a.Recovery_log.pid b.Recovery_log.pid;
          Alcotest.(check string) "comm" a.Recovery_log.comm b.Recovery_log.comm;
          check_int "fault" a.Recovery_log.fault_addr b.Recovery_log.fault_addr;
          check_bool "irq flag" a.Recovery_log.interrupt_context
            b.Recovery_log.interrupt_context;
          check_int "recovered" (List.length a.Recovery_log.recovered)
            (List.length b.Recovery_log.recovered);
          List.iter2
            (fun (fa : Recovery_log.frame) (fb : Recovery_log.frame) ->
              check_int "frame addr" fa.Recovery_log.addr fb.Recovery_log.addr;
              Alcotest.(check string) "frame sym" fa.Recovery_log.rendered
                fb.Recovery_log.rendered;
              Alcotest.(check (list int)) "frame bytes" fa.Recovery_log.view_bytes
                fb.Recovery_log.view_bytes)
            a.Recovery_log.backtrace b.Recovery_log.backtrace)
        (Recovery_log.entries log) (Recovery_log.entries log')

let test_log_save_load () =
  let log = attacked_log () in
  let path = Filename.temp_file "fc_log" ".txt" in
  Recovery_log.save log path;
  (match Recovery_log.load path with
  | Error e -> Alcotest.fail e
  | Ok log' -> check_int "count" (Recovery_log.count log) (Recovery_log.count log'));
  Sys.remove path

let test_log_parse_errors () =
  (match Recovery_log.of_string "garbage line\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match Recovery_log.of_string "rec 0x1 0x2 foo\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rec-outside-entry error"

(* ------------------------------------------------------------------ *)
(* Cold error paths and the whole-function relaxation                   *)
(* ------------------------------------------------------------------ *)

let test_cold_paths_not_profiled () =
  (* proc_file_read carries a cold block; the profile of a workload that
     reads procfs must have a hole there (raw executed spans) *)
  let cfg = Lazy.force toplike_config in
  let img = Lazy.force image in
  let p =
    List.find
      (fun (p : Fc_isa.Asm.placed) -> p.Fc_isa.Asm.pname = "proc_file_read")
      (Image.functions img)
  in
  let covered =
    Range_list.covered_spans cfg.View_config.ranges Fc_ranges.Segment.Base_kernel
      (Fc_ranges.Span.make ~lo:p.Fc_isa.Asm.addr
         ~hi:(p.Fc_isa.Asm.addr + p.Fc_isa.Asm.size))
  in
  (* executed but with the cold block skipped: more than one sub-span *)
  check_bool "function partially profiled" true (List.length covered >= 2)

let error_path_scenario ~whole_function_load () =
  let opts = { Facechange.default_opts with whole_function_load } in
  let os, _hyp, fc = runtime_guest ~config:Os.profiling_config ~opts () in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  Os.set_branch_policy os (Some (fun _ -> false)) (* take every error path *);
  let p = Os.spawn os ~name:"toplike" (toplike_script 2) in
  (match Os.run ~max_rounds:10_000 os with
  | () -> ()
  | exception Os.Guest_panic _ -> ());
  (fc, Process.is_exited p)

let test_whole_function_load_absorbs_error_paths () =
  let fc, ok = error_path_scenario ~whole_function_load:true () in
  check_bool "completed" true ok;
  check_int "no recovery: cold code loaded with its function" 0
    (Facechange.recoveries fc)

let test_raw_spans_trap_on_error_paths () =
  let fc, _ok = error_path_scenario ~whole_function_load:false () in
  check_bool "error paths hit UD2 holes inside profiled functions" true
    (Facechange.recoveries fc > 0)

(* ------------------------------------------------------------------ *)
(* Integrity scanner                                                    *)
(* ------------------------------------------------------------------ *)

let rk_fns name =
  [ Fc_kernel.Kfunc.v ~size:96 ~sub:name (name ^ "_hook") [ Fc_kernel.Kfunc.C "strnlen" ];
    Fc_kernel.Kfunc.v ~size:64 ~sub:name (name ^ "_log") [] ]

let test_integrity_clean () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  check_int "clean guest" 0 (List.length (Fc_core.Integrity.scan_module_area hyp))

let test_integrity_visible_module_claimed () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let (_ : Os.module_info) = Os.load_module_fns os ~name:"rk1" (rk_fns "rk1") in
  check_int "visible module claimed" 0
    (List.length (Fc_core.Integrity.scan_module_area hyp))

let test_integrity_hidden_module_found () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let info = Os.load_module_fns os ~name:"rk1" (rk_fns "rk1") in
  Os.hide_module os "rk1";
  match Fc_core.Integrity.scan_module_area hyp with
  | [ f ] ->
      check_int "both functions found" 2 f.Fc_core.Integrity.functions;
      check_int "at the hidden base" info.Os.unit_image.Fc_isa.Asm.base
        f.Fc_core.Integrity.region_lo
  | l -> Alcotest.failf "expected one finding, got %d" (List.length l)

let test_integrity_two_hidden_modules () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let (_ : Os.module_info) = Os.load_module_fns os ~name:"rk1" (rk_fns "rk1") in
  let (_ : Os.module_info) = Os.load_module_fns os ~name:"rk2" (rk_fns "rk2") in
  Os.hide_module os "rk1";
  Os.hide_module os "rk2";
  check_int "two regions" 2 (List.length (Fc_core.Integrity.scan_module_area hyp))

let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

let suites =
  [
    ( "core.profiler",
      [
        tc "profiling records the app's kernel paths" test_profile_produces_ranges;
        tc "interrupt code shared into the view" test_profile_interrupt_ranges_shared;
        tc "kvmclock absent from profiles" test_profile_excludes_kvmclock;
        tc "view config to_string/of_string" test_view_config_roundtrip;
        tc "view config save/load" test_view_config_save_load;
        tc "view config parse errors" test_view_config_rejects_garbage;
      ] );
    ( "core.view",
      [
        tc "ud2 fill + whole-function load" test_view_ud2_fill_and_load;
        tc "raw-span load ablation" test_view_raw_load_ablation;
        tc "module pages ud2-filled" test_view_module_pages_ud2;
        tc "destroy frees frames" test_view_destroy_frees_frames;
        tc "module-relative ranges relocate" test_view_module_relative_load;
      ] );
    ( "core.runtime",
      [
        tc_slow "benign kvmclock recovery chain" test_runtime_robustness_kvmclock_only;
        tc_slow "interrupt-context classification" test_interrupt_context_classification;
        tc_slow "no recovery in matching environment" test_runtime_no_recovery_same_clocksource;
        tc_slow "out-of-view syscalls detected (Fig.4 shape)" test_runtime_detects_out_of_view_syscall;
        tc_slow "union view blind spot" test_union_view_blind_spot;
      ] );
    ( "core.cross_view",
      [
        tc_slow "lazy vs instant recovery (Fig.3)" test_cross_view_lazy_and_instant;
        tc_slow "instant recovery ablation misbehaves" test_cross_view_without_instant_recovery_misbehaves;
      ] );
    ( "core.report",
      [
        tc_slow "classification + summary" test_report_classification;
        tc "hidden code classification" test_report_hidden_code;
        tc_slow "log to_string/of_string roundtrip" test_log_roundtrip;
        tc_slow "log save/load" test_log_save_load;
        tc "log parse errors" test_log_parse_errors;
      ] );
    ( "core.cold_paths",
      [
        tc_slow "cold blocks excluded from profiles" test_cold_paths_not_profiled;
        tc_slow "whole-function load absorbs error paths" test_whole_function_load_absorbs_error_paths;
        tc_slow "raw spans trap on error paths" test_raw_spans_trap_on_error_paths;
      ] );
    ( "core.integrity",
      [
        tc "clean guest: nothing unaccounted" test_integrity_clean;
        tc "visible modules are claimed" test_integrity_visible_module_claimed;
        tc "hidden module located" test_integrity_hidden_module_found;
        tc "two hidden modules, two regions" test_integrity_two_hidden_modules;
      ] );
    ( "core.switching",
      [
        tc_slow "switch stats + same-view optimization" test_switch_stats_and_same_view_opt;
        tc_slow "deferred switching at resume-userspace" test_deferred_switching;
        tc_slow "switch-at-context-switch ablation" test_switch_at_context_switch_ablation;
        tc_slow "unload and disable" test_unload_and_disable;
        tc_slow "unbound processes unaffected" test_full_view_processes_untouched;
      ] );
  ]
