(* Frame sharing across views: intern identical pages, copy-on-write on
   first write, and — above all — strict behavior invisibility: the
   guest must not be able to tell whether sharing is on. *)

module Action = Fc_machine.Action
module Process = Fc_machine.Process
module Os = Fc_machine.Os
module Image = Fc_kernel.Image
module Hyp = Fc_hypervisor.Hypervisor
module Phys = Fc_mem.Phys_mem
module Frame_cache = Fc_mem.Frame_cache
module Profiler = Fc_profiler.Profiler
module View_config = Fc_profiler.View_config
module View = Fc_core.View
module Facechange = Fc_core.Facechange
module Recovery_log = Fc_core.Recovery_log

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let image = lazy (Image.build_exn ())

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

let pipeish_script n =
  [ Action.Syscall "pipe" ]
  @ Action.repeat n
      [ Action.Syscall "write:pipe"; Action.Syscall "read:pipe";
        Action.Compute 1_000 ]
  @ [ Action.Exit ]

let toplike_config =
  lazy (Profiler.profile_app (Lazy.force image) ~name:"toplike" (toplike_script 24))

let pipeish_config =
  lazy (Profiler.profile_app (Lazy.force image) ~name:"pipeish" (pipeish_script 24))

(* ------------------------------------------------------------------ *)
(* Direct sharing mechanics                                            *)
(* ------------------------------------------------------------------ *)

let test_identical_views_share_frames () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let baseline = Phys.live_frames (Os.phys os) in
  let cfg = Lazy.force toplike_config in
  let v1 = View.build ~hyp cfg in
  (* within one view, all pure-UD2 fill pages collapse onto one frame *)
  check_bool "intra-view dedup" true
    (View.frame_count v1 < View.private_page_count v1);
  let before_v2 = Phys.live_frames (Os.phys os) in
  let v2 = View.build ~hyp cfg in
  check_int "second identical view costs zero frames" 0
    (Phys.live_frames (Os.phys os) - before_v2);
  check_int "all of its pages are shared" (View.private_page_count v2)
    (View.shared_page_count v2);
  check_bool "cache hits recorded" true (Frame_cache.hits (Hyp.frame_cache hyp) > 0);
  View.destroy v2;
  View.destroy v1;
  check_int "destroy restores the frame pool exactly" baseline
    (Phys.live_frames (Os.phys os))

let test_shared_and_private_builds_byte_identical () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let cfg = Lazy.force toplike_config in
  let vs = View.build ~hyp cfg in
  let vp = View.build ~hyp ~share_frames:false cfg in
  check_int "private build shares nothing" (View.private_page_count vp)
    (View.frame_count vp);
  check_int "same pages either way" (View.private_page_count vs)
    (View.private_page_count vp);
  check_int "same loaded bytes either way" (View.loaded_bytes vs)
    (View.loaded_bytes vp);
  let img = Lazy.force image in
  List.iter
    (fun name ->
      let a = Image.addr_of_exn img name in
      for i = 0 to 63 do
        if View.read_code vs ~gva:(a + i) <> View.read_code vp ~gva:(a + i) then
          Alcotest.failf "content differs at %s+%d" name i
      done)
    [ "sys_getpid"; "udp_recvmsg"; "schedule"; "tty_write"; "pipe_poll" ];
  View.destroy vp;
  View.destroy vs

(* ------------------------------------------------------------------ *)
(* Randomized scheduler stress: active code always matches the         *)
(* selected view, and every counter is identical sharing on vs off     *)
(* ------------------------------------------------------------------ *)

let random_script rng =
  let n = 4 + Random.State.int rng 8 in
  List.concat
    (List.init n (fun _ ->
         match Random.State.int rng 8 with
         | 0 -> [ Action.Syscall "getpid" ]
         | 1 -> [ Action.Syscall "getuid" ]
         | 2 ->
             [ Action.Syscall "open:proc"; Action.Syscall "read:proc:stat";
               Action.Syscall "close" ]
         | 3 -> [ Action.Syscall "write:tty" ]
         | 4 -> [ Action.Compute (500 + Random.State.int rng 5_000) ]
         | 5 -> [ Action.Sleep (10 + Random.State.int rng 100) ]
         | _ -> [ Action.Syscall "read:proc:pid" ]))
  @ [ Action.Exit ]

type outcome = {
  o_recoveries : int;
  o_recovered_bytes : int;
  o_switches : int;
  o_names : string list;
}

let stress_run ~share scripts =
  let os = Os.create ~config:Os.runtime_config (Lazy.force image) in
  let hyp = Hyp.attach os in
  let opts = { Facechange.default_opts with share_frames = share } in
  let fc = Facechange.enable ~opts hyp in
  let (_ : int) = Facechange.load_view fc (Lazy.force toplike_config) in
  let (_ : int) = Facechange.load_view fc (Lazy.force pipeish_config) in
  let procs =
    List.mapi
      (fun i script ->
        let name =
          match i mod 3 with 0 -> "toplike" | 1 -> "pipeish" | _ -> "unbound"
        in
        Os.spawn os ~name script)
      scripts
  in
  let img = Lazy.force image in
  let probes =
    List.map (Image.addr_of_exn img)
      [ "sys_getpid"; "udp_recvmsg"; "pipe_poll"; "schedule"; "tty_write" ]
  in
  (* the invariant: what the vCPU would fetch is exactly what the
     selected view says, at every scheduling point we get to observe *)
  let check_active_code () =
    let vid = Os.active_vcpu_id os in
    let idx = Facechange.active_index ~vid fc in
    List.iter
      (fun gva ->
        let expected =
          if idx = Facechange.full_view_index then Hyp.read_original_code hyp gva
          else
            match Facechange.find_view fc idx with
            | Some v -> View.read_code v ~gva
            | None -> Alcotest.fail "active view disappeared"
        in
        if Hyp.read_active_code hyp gva <> expected then
          Alcotest.failf "active code mismatch at 0x%x under view %d" gva idx)
      probes
  in
  Os.run
    ~until:(fun _ ->
      check_active_code ();
      List.for_all Process.is_exited procs)
    os;
  check_active_code ();
  List.iter
    (fun p -> check_bool "process completed" true (Process.is_exited p))
    procs;
  {
    o_recoveries = Facechange.recoveries fc;
    o_recovered_bytes = Facechange.recovered_bytes fc;
    o_switches = Facechange.switches fc;
    o_names = Recovery_log.recovered_names (Facechange.log fc);
  }

let test_stress_parity () =
  List.iter
    (fun seed ->
      let rng = Random.State.make [| 0x5EED; seed |] in
      let scripts = List.init 5 (fun _ -> random_script rng) in
      let on = stress_run ~share:true scripts in
      let off = stress_run ~share:false scripts in
      check_int "recoveries identical" off.o_recoveries on.o_recoveries;
      check_int "recovered bytes identical" off.o_recovered_bytes
        on.o_recovered_bytes;
      check_int "switches identical" off.o_switches on.o_switches;
      Alcotest.(check (list string))
        "recovery sequence identical" off.o_names on.o_names;
      check_bool "workload actually recovered something" true
        (on.o_recoveries > 0))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Regressions                                                         *)
(* ------------------------------------------------------------------ *)

(* Cross-view instant recovery (the odd 0x0b 0x0f boundary) writing into
   a page whose frame is shared with a sibling view: the write must
   break the frame out of sharing, and the sibling must keep its UD2
   fill. *)
let test_instant_recovery_cow_break () =
  let os =
    Os.create
      ~config:{ Os.profiling_config with wake_delay = 3 }
      (Lazy.force image)
  in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable hyp in
  let cfg = Lazy.force toplike_config in
  let sibling = View_config.make ~app:"sibling" cfg.View_config.ranges in
  let i_sib = Facechange.load_view fc sibling in
  let p =
    Os.spawn os ~name:"toplike"
      [
        Action.Syscall "getpid";
        Action.Syscall "poll:pipe" (* blocks inside pipe_poll *);
        Action.Syscall "getpid";
        Action.Exit;
      ]
  in
  (* hot-plug the toplike view while the process is blocked mid-kernel:
     resuming faults inside pipe_poll, and sys_poll's odd return address
     triggers instant recovery *)
  Os.schedule_at_round os 2 (fun _ ->
      let (_ : int) = Facechange.load_view fc cfg in
      ());
  Os.run os;
  check_bool "completed" true (Process.is_exited p);
  let view_of idx =
    match Facechange.find_view fc idx with
    | Some v -> v
    | None -> Alcotest.fail "view disappeared"
  in
  let v_top = view_of (Facechange.selector fc ~comm:"toplike") in
  let v_sib = view_of i_sib in
  check_bool "recovery broke shared frames" true (View.cow_breaks v_top > 0);
  let img = Lazy.force image in
  let sys_poll = Image.addr_of_exn img "sys_poll" in
  let pipe_poll = Image.addr_of_exn img "pipe_poll" in
  check_bool "instant recovery filled sys_poll in the faulting view" true
    (View.read_code v_top ~gva:sys_poll = Some 0x55);
  check_bool "lazy recovery filled pipe_poll in the faulting view" true
    (View.read_code v_top ~gva:pipe_poll = Some 0x55);
  (* the sibling shared those frames; it must be untouched *)
  check_bool "sibling still UD2 at sys_poll" true
    (View.read_code v_sib ~gva:sys_poll = Some 0x0f);
  check_bool "sibling still UD2 at pipe_poll" true
    (View.read_code v_sib ~gva:pipe_poll = Some 0x0f)

(* Unloading a view out from under a running process: it falls back to
   the full view and keeps running, and unloading both views returns the
   frame pool to its exact pre-load level — shared refcounts leak
   nothing. *)
let test_unload_while_active_no_leaks () =
  let os = Os.create ~config:Os.runtime_config (Lazy.force image) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable hyp in
  (* spawn first: the guest allocates the process' own RAM frames, which
     legitimately outlive it — the leak check is about view frames only *)
  let p = Os.spawn os ~name:"toplike" (toplike_script 8) in
  let baseline = Phys.live_frames (Os.phys os) in
  let cfg = Lazy.force toplike_config in
  let sibling = View_config.make ~app:"sibling" cfg.View_config.ranges in
  let i_top = Facechange.load_view fc cfg in
  let i_sib = Facechange.load_view fc sibling in
  check_bool "the two views share frames" true (Facechange.shared_frames fc > 0);
  Os.schedule_at_round os 6 (fun _ -> Facechange.unload_view fc i_top);
  Os.run os;
  check_bool "completed under the full view" true (Process.is_exited p);
  check_int "selector fell back to full" Facechange.full_view_index
    (Facechange.selector fc ~comm:"toplike");
  Facechange.unload_view fc i_sib;
  check_int "no leaked frames" baseline (Phys.live_frames (Os.phys os));
  Facechange.disable fc;
  check_int "still none after disable" baseline (Phys.live_frames (Os.phys os))

let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

(* A view page's memo key includes its original bytes.  Two guests of
   one image build the same view; in one of them a kernel-text byte
   inside a loaded span was overwritten first, with a byte that cannot
   start a prologue, so both views load the same spans.  In either build
   order each view holds its own guest's byte there, and every
   frame-cache key is the MD5 of its frame. *)
let test_view_page_key_includes_original_bytes () =
  let cfg = Lazy.force toplike_config in
  let s =
    List.hd
      (Fc_ranges.Range_list.spans cfg.View_config.ranges
         Fc_ranges.Segment.Base_kernel)
  in
  let gva = (s.Fc_ranges.Span.lo + s.Fc_ranges.Span.hi) / 2 in
  List.iter
    (fun patched_first ->
      let img = Image.build_exn () in
      let guest patched =
        let os = Os.create img in
        let orig = Option.get (Os.read_guest_byte os gva) in
        let byte = if patched then (if orig = 0x90 then 0x91 else 0x90) else orig in
        (if patched then
           let gpa = Fc_kernel.Layout.gva_to_gpa gva in
           let frame =
             Option.get (Os.ram_frame os ~gpa_page:(Fc_kernel.Layout.page_of gpa))
           in
           Phys.write_byte (Os.phys os)
             (Phys.addr_of_frame frame + (gpa mod Phys.page_size))
             byte);
        let hyp = Hyp.attach os in
        let v = View.build ~hyp cfg in
        let order = if patched = patched_first then "first" else "second" in
        Alcotest.(check (option int))
          (Printf.sprintf "the %s guest's view holds its own byte" order)
          (Some byte) (View.read_code v ~gva);
        Alcotest.(check (list int))
          (Printf.sprintf "the %s guest's frame-cache keys are its frames' MD5s" order)
          [] (Test_env.misfiled_frames hyp)
      in
      guest patched_first;
      guest (not patched_first))
    [ true; false ]

let suites =
  [
    ( "sharing",
      [
        tc "identical views share frames; destroy restores pool"
          test_identical_views_share_frames;
        tc "shared and private builds are byte-identical"
          test_shared_and_private_builds_byte_identical;
        tc_slow "random scheduler stress: sharing on/off parity"
          test_stress_parity;
        tc_slow "instant recovery on a shared page breaks CoW, not the sibling"
          test_instant_recovery_cow_break;
        tc_slow "unload-while-active leaks no refcounts"
          test_unload_while_active_no_leaks;
        tc "a view page's memo key includes its original bytes"
          test_view_page_key_includes_original_bytes;
      ] );
  ]
