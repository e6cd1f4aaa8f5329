(* Decode-once superblocks (lib/machine/cpu.ml + the blocks Os keeps on
   each frame's line, found through the iTLB): coherence of the
   invalidation sources — the backing frame's version (COW breaks and
   in-place recovery writes) and trap-set changes — and the absence of
   any from a view switch to different frames; interrupt delivery parity;
   bounded lines under view churn; the image's body memo (engaged, and
   keyed by page content); the fast engine as the default; and
   reference-vs-fast parity under a random fault plan.  Every scenario
   test runs on twin guests (fast and reference engine) and requires
   identical observables, so the coherence machinery is proven not just
   to invalidate, but to invalidate without changing behavior. *)

module Os = Fc_machine.Os
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Governor = Fc_core.Governor
module View = Fc_core.View
module Ept = Fc_mem.Ept
module Phys = Fc_mem.Phys_mem
module Image = Fc_kernel.Image
module Layout = Fc_kernel.Layout
module Irq_paths = Fc_kernel.Irq_paths
module Metrics = Fc_obs.Metrics
module App = Fc_apps.App
module Profiles = Fc_benchkit.Profiles

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let profiles () = Lazy.force Test_env.profiles
let image () = Lazy.force Test_env.image

let metric os key =
  Option.value ~default:0 (Metrics.find (Fc_obs.Obs.metrics (Os.obs os)) key)

(* ---------------- twin-guest scenario runner ---------------- *)

(* Run [scenario] on one guest with full tracing armed.  [noted] is a
   per-run scratchpad: scheduled hooks stash counter snapshots there so a
   test can compare hook-time values against end-of-run values without
   sharing mutable state between the two twins. *)
let run_engine ~engine scenario =
  let os = Os.create ~engine (image ()) in
  let noted : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let ih = ref 0 and eh = ref 0 in
  Os.set_trace os (Some (fun a len -> ih := (((!ih * 31) + a) * 31) + len));
  Os.set_event_trace os (Some (fun ev -> eh := (!eh * 31) + Hashtbl.hash ev));
  scenario os noted;
  ( os,
    noted,
    (Os.instructions os, Os.cycles os, !ih, !eh, Os.vmi_current_task os) )

let note os noted name key = Hashtbl.replace noted name (metric os key)
let noted_exn noted key = Hashtbl.find noted key

(* Identical observables on both twins, or the scenario is not
   behavior-invisible on the fast engine.  Returns the fast guest (and
   its scratchpad) for counter assertions. *)
let twin_check ~label scenario =
  let os_on, noted_on, on = run_engine ~engine:Os.Fast scenario in
  let _os_off, _noted_off, off = run_engine ~engine:Os.Reference scenario in
  let i_off, c_off, ih_off, eh_off, task_off = off in
  let i_on, c_on, ih_on, eh_on, task_on = on in
  check_int (label ^ ": instructions retired") i_off i_on;
  check_int (label ^ ": cycles") c_off c_on;
  check_int (label ^ ": instruction trace") ih_off ih_on;
  check_int (label ^ ": call/return events") eh_off eh_on;
  check_bool (label ^ ": VMI current task") true (task_off = task_on);
  (os_on, noted_on)

let spawn_app os ~name ?(len = 16) () =
  let app = App.find_exn name in
  ignore (Os.spawn os ~name (app.App.script len) : Process.t)

(* ---------------- invalidation sources ---------------- *)

(* View switch: Facechange flips the fetch path between the bound app's
   view frames and the full-view frames on every context switch, so
   kernel-text pages really change host frame mid-run.  A warm block
   whose page now maps elsewhere must never execute — the iTLB resolves
   the pc to the other frame's line, which holds that frame's own
   blocks — while the per-instruction twin proves the switch is
   behavior-invisible.  Each frame keeps its blocks across the switches,
   so none is dropped and a switch back re-runs them. *)
let test_view_switch_keeps_blocks () =
  let scenario os noted =
    let hyp = Hyp.attach os in
    let fc = Facechange.enable ~governor:Governor.default_policy hyp in
    let p = profiles () in
    ignore (Facechange.load_view fc (Profiles.config_of p "top") : int);
    spawn_app os ~name:"top" ~len:8 ();
    (* unbound: runs under the full view, so every context switch between
       the two remaps the shared kernel text *)
    spawn_app os ~name:"gzip" ();
    Os.schedule_at_round os 3 (fun os -> note os noted "hits_pre" "sb.hits");
    Os.run os
  in
  let os_on, noted = twin_check ~label:"view-switch" scenario in
  check_bool "blocks warm under switching" true (noted_exn noted "hits_pre" > 0);
  check_int "view switches drop no block" 0 (metric os_on "sb.invalidations");
  (* switching back to a frame already decoded finds its blocks on the
     frame's line, so hits outnumber builds even under
     per-context-switch view churn *)
  check_bool "retention keeps rebuilds below hits" true
    (metric os_on "sb.hits" > metric os_on "sb.blocks_built")

(* In-place write: [Phys.touch] on the hot syscall-path text frame bumps
   its version without changing a byte — the signal an in-place
   lazy-recovery write emits, and the only invalidation source in this
   scenario (no view switch, no table_set after boot). *)
let test_version_invalidates () =
  let scenario ~touch os noted =
    spawn_app os ~name:"gzip" ();
    Os.schedule_at_round os 3 (fun os ->
        note os noted "invals_pre" "sb.invalidations";
        note os noted "hits_pre" "sb.hits";
        let a = Os.resolve_exn os "syscall_call" in
        let gpa_page = Layout.page_of (Layout.gva_to_gpa a) in
        match Os.ram_frame os ~gpa_page with
        | Some frame -> if touch then Phys.touch (Os.phys os) frame
        | None -> Alcotest.fail "syscall_call frame missing");
    Os.run os
  in
  let os_on, noted = twin_check ~label:"in-place-write" (scenario ~touch:true) in
  let os_kept, _, _ = run_engine ~engine:Os.Fast (scenario ~touch:false) in
  check_bool "blocks warm before the write" true (noted_exn noted "hits_pre" > 0);
  check_int "no invalidations before the write" 0 (noted_exn noted "invals_pre");
  check_bool "the write invalidated warm blocks" true
    (metric os_on "sb.invalidations" > 0);
  (* the frame's blocks died for good, so the hot path ran on rebuilt
     ones, never on the stale blocks *)
  check_bool "invalidated blocks were rebuilt" true
    (metric os_on "sb.blocks_built" > metric os_kept "sb.blocks_built")

(* A COW break during enforced execution: the first write into a shared
   view frame splices a private copy into the installed table
   ([Ept.table_set] + a version touch on the displaced frame) while
   superblocks built from the old frame are live.  The write lands on the
   page of [syscall_call], which top runs on every syscall, and rewrites
   the byte with its current value, so the twins stay comparable and the
   private frame holds the same bytes: its line starts empty, and the
   page's blocks must be built again on it rather than run from the old
   frame's line. *)
let test_cow_break_rebuilds () =
  let scenario ~break os noted =
    let hyp = Hyp.attach os in
    let fc = Facechange.enable ~governor:Governor.default_policy hyp in
    let p = profiles () in
    let idx = Facechange.load_view fc (Profiles.config_of p "top") in
    (* a byte-identical sibling forces the loaded view's pages into
       shared frames, so the write below must break COW *)
    let sib = View.build ~hyp (Profiles.config_of p "top") in
    spawn_app os ~name:"top" ~len:8 ();
    Os.schedule_at_round os 4 (fun os ->
        note os noted "hits_pre" "sb.hits";
        match Facechange.find_view fc idx with
        | None -> Alcotest.fail "view vanished"
        | Some v -> (
            let g = Os.resolve_exn os "syscall_call" in
            if not (View.covers v ~gva:g) then
              Alcotest.fail "top's view does not cover syscall_call";
            match View.read_code v ~gva:g with
            | Some b ->
                if break then View.write_code v ~gva:g b;
                Hashtbl.replace noted "cow_breaks" (View.cow_breaks v)
            | None -> Alcotest.fail "unreadable view byte"));
    Os.run os;
    ignore (sib : View.t)
  in
  let os_on, noted = twin_check ~label:"cow-break" (scenario ~break:true) in
  let os_kept, _, _ = run_engine ~engine:Os.Fast (scenario ~break:false) in
  check_bool "blocks warm before the break" true (noted_exn noted "hits_pre" > 0);
  check_bool "the write privatized a shared frame" true
    (noted_exn noted "cow_breaks" > 0);
  check_bool "blocks were built on the private frame" true
    (metric os_on "sb.blocks_built" > metric os_kept "sb.blocks_built")

(* Trap-set changes: arming a breakpoint on an address in the {e middle}
   of a hot block must split rebuilt blocks at that address, so the
   entry-only trap probe still observes it — the per-instruction twin is
   the oracle. *)
let test_trap_set_splits_blocks () =
  let scenario os noted =
    spawn_app os ~name:"gzip" ();
    Os.schedule_at_round os 3 (fun os ->
        note os noted "invals_pre" "sb.invalidations";
        (* the second instruction of syscall_call: interior to a block
           warmed by every preceding syscall *)
        Os.set_trap os (Os.resolve_exn os "syscall_call" + 1));
    Os.run os
  in
  let os_on, noted = twin_check ~label:"trap-split" scenario in
  check_int "no invalidations before arming" 0 (noted_exn noted "invals_pre");
  check_bool "arming the trap invalidated warm blocks" true
    (metric os_on "sb.invalidations" > 0)

(* Interrupts are delivered at block boundaries only (between CPU
   invocations); the handler's full execution — and the vCPU state VMI
   reads afterwards — must match the per-instruction path. *)
let test_interrupt_at_boundary () =
  let scenario os noted =
    spawn_app os ~name:"apache" ~len:8 ();
    Os.schedule_at_round os 3 (fun os ->
        Hashtbl.replace noted "fired" 1;
        Os.inject_irq os Irq_paths.Net_rx_tcp;
        Os.inject_irq os Irq_paths.Disk);
    Os.run os
  in
  let _os_on, noted = twin_check ~label:"interrupt" scenario in
  check_int "interrupts were injected" 1 (noted_exn noted "fired")

(* ---------------- decode-cache eviction (regression) ---------------- *)

(* Churning views used to leak one decode line per freed view frame:
   the per-frame decode cache was never evicted, and a freed frame's
   number could be recycled for a non-code page (a kernel stack), parking
   its stale line forever.  With the release hook the line dies with the
   frame, so repeated load/run/unload cycles hold the cache at a steady
   size.  The spawn-before-load ordering below is what forced the leak in
   the unfixed code: each cycle the previous view's frame numbers are
   recycled for kernel stacks and the new view allocates fresh numbers. *)
let test_decode_cache_bounded_under_view_churn () =
  let os = Os.create (image ()) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable ~governor:Governor.default_policy hyp in
  let p = profiles () in
  let app = App.find_exn "top" in
  let sizes =
    List.init 6 (fun i ->
        ignore (Os.spawn os ~name:"top" (app.App.script 3) : Process.t);
        let idx = Facechange.load_view fc (Profiles.config_of p "top") in
        Os.run os;
        Facechange.unload_view fc idx;
        ignore (i : int);
        Os.decode_cache_frames os)
  in
  let steady = List.nth sizes 1 in
  List.iteri
    (fun i s ->
      if i >= 1 then
        check_int (Printf.sprintf "cycle %d holds the steady size" i) steady s)
    sizes

(* ---------------- one decode per image ---------------- *)

(* A plain guest (no views) running gzip on [img]. *)
let plain_guest img =
  let os = Os.create img in
  spawn_app os ~name:"gzip" ();
  Os.run os;
  os

(* A guest on [img] with gzip's and top's views loaded, running both. *)
let viewed_guest img =
  let os = Os.create img in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable ~governor:Governor.default_policy hyp in
  List.iter
    (fun name ->
      ignore (Facechange.load_view fc (Profiles.config_of (profiles ()) name) : int);
      spawn_app os ~name ())
    [ "gzip"; "top" ];
  Os.run os;
  os

(* The image's memos are engaged: a second identical guest, with the
   same views loaded, finds every body, page and view-page digest the
   first one published and hashes no frame, yet still instantiates (and
   counts) exactly the blocks the first one built. *)
let test_second_guest_publishes_nothing () =
  let img = Image.build_exn () in
  let first = viewed_guest img in
  let memos () =
    (Image.decoded_blocks img, Image.decoded_pages img, Image.view_pages img)
  in
  let ((bodies, pages, view_pages) as published) = memos () in
  check_bool "the first guest published bodies" true (bodies > 0);
  check_bool "and the pages they came from" true (pages > 0);
  check_bool "and its view pages' digests" true (view_pages > 0);
  let second = viewed_guest img in
  check_bool "the second guest published nothing" true (published = memos ());
  check_int "the second guest hashed no frame" 0
    (Phys.digests_computed (Os.phys second));
  check_int "both guests built the same blocks"
    (metric first "sb.blocks_built")
    (metric second "sb.blocks_built");
  check_int "and retired the same instructions" (Os.instructions first)
    (Os.instructions second)

(* Boot records the image's MD5 of every code page it fills, on both
   engines and under any machine config: each is the MD5 of its frame,
   and reading them hashes nothing. *)
let test_boot_records_true_digests () =
  let img = image () in
  List.iter
    (fun engine ->
      List.iter
        (fun name ->
          let os = Os.create ~engine ~config:(App.os_config (App.find_exn name)) img in
          let phys = Os.phys os in
          List.iter
            (fun (gva, d) ->
              let gpa_page = Layout.page_of (Layout.gva_to_gpa gva) in
              let f = Option.get (Os.ram_frame os ~gpa_page) in
              let label what =
                Printf.sprintf "%s, %s config: page 0x%x, %s" (Os.engine_name engine)
                  name gva what
              in
              let md5 = Digest.to_hex (Digest.bytes (Phys.frame_bytes phys f)) in
              Alcotest.(check string) (label "image's digest") md5 (Digest.to_hex d);
              Alcotest.(check string) (label "recorded digest") md5
                (Digest.to_hex (Phys.digest phys f)))
            (Image.boot_digests img);
          check_int
            (Printf.sprintf "%s, %s config: no frame hashed" (Os.engine_name engine) name)
            0 (Phys.digests_computed phys))
        [ "firefox"; "apache"; "top"; "tcpdump" ])
    [ Os.Reference; Os.Fast ]

(* The memo is keyed by page content, not by address.  A process named
   top running gzip's script under top's view executes kernel paths the
   view left out, and lazy recovery writes them into the view's frames:
   the block at the last recovered address is then built from a body
   decoded from the frame's new bytes.  Those bytes' bodies sit beside
   the plain kernel text's, so a plain guest of the same image, before
   and after, decodes nothing new. *)
let test_recovery_fill_decodes_new_content () =
  let img = Image.build_exn () in
  let plain = plain_guest img in
  let os = Os.create img in
  let hyp = Hyp.attach os in
  (* no governor: a recovery storm would degrade the process to the
     full kernel view, and the last recovered frame would never run *)
  let fc = Facechange.enable hyp in
  let idx = Facechange.load_view fc (Profiles.config_of (profiles ()) "top") in
  let gzip = App.find_exn "gzip" in
  ignore (Os.spawn os ~name:"top" (gzip.App.script 16) : Process.t);
  Os.run os;
  let log = Facechange.log fc in
  check_bool "the view was recovered into" true
    (Fc_core.Recovery_log.count log > 0);
  let last = List.hd (List.rev (Fc_core.Recovery_log.entries log)) in
  let a = last.Fc_core.Recovery_log.fault_addr in
  let v =
    match Facechange.find_view fc idx with
    | Some v -> v
    | None -> Alcotest.fail "view vanished"
  in
  let base = a - (a mod Layout.page_size) in
  let page =
    Bytes.init Layout.page_size (fun o ->
        match View.read_code v ~gva:(base + o) with
        | Some b -> Char.chr b
        | None -> Alcotest.fail "unreadable view byte")
  in
  let text =
    Bytes.init Layout.page_size (fun o ->
        match Image.read_byte img (base + o) with
        | Some b -> Char.chr b
        | None -> '\000')
  in
  check_bool "the recovered frame's bytes are new" true (page <> text);
  check_bool "a body was decoded from the recovered bytes" true
    (Image.body (Image.page img (Digest.bytes page)) ~pc:a (fun () -> None) <> None);
  let published = Image.decoded_blocks img in
  let again = plain_guest img in
  check_int "a plain guest still finds the old content's bodies" published
    (Image.decoded_blocks img);
  check_int "and builds the same blocks"
    (metric plain "sb.blocks_built")
    (metric again "sb.blocks_built")

(* ---------------- the engines ---------------- *)

(* A bare [Os.create] boots the fast engine: the profiler, every paper
   experiment and the benchmark measure whatever this default is. *)
let test_default_engine_is_fast () =
  let os = Os.create (image ()) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable hyp in
  ignore (Facechange.load_view fc (Profiles.config_of (profiles ()) "top") : int);
  spawn_app os ~name:"top" ~len:8 ();
  Os.run os;
  check_bool "superblocks built" true (metric os "sb.blocks_built" > 0);
  check_bool "iTLB hits" true (metric os "tlb.i_hits" > 0)

let test_enforced_matrix () =
  let p = profiles () in
  let base, ren =
    Differential.run ~profiles:p ~engine:Os.Reference ~fault_seed:2 ()
  in
  let fp, en = Differential.run ~profiles:p ~engine:Os.Fast ~fault_seed:2 () in
  Differential.check_parity ~label:"fast-vs-reference" ~expect:base ~got:fp;
  check_bool "fast: blocks built" true (en.Differential.en_sb_built > 0);
  check_bool "fast: block hits" true (en.Differential.en_sb_hits > 0);
  check_bool "fast: byte changes invalidate" true
    (en.Differential.en_sb_invalidations > 0);
  check_int "reference: sb counters silent" 0 ren.Differential.en_sb_built;
  check_int "reference: sb hits silent" 0 ren.Differential.en_sb_hits;
  (* coverage alone: step runs retire batched, the runs stay put *)
  let batched, _ =
    Differential.run ~trace:false ~profiles:p ~engine:Os.Fast ~fault_seed:2 ()
  in
  Differential.check_parity ~label:"coverage without the trace"
    ~expect:{ base with Differential.fp_insn_digest = 0 } ~got:batched

let suites =
  [
    ( "sblocks",
      let tc n f = Alcotest.test_case n `Quick f in
      [
        tc "view switch to different frames drops no block"
          test_view_switch_keeps_blocks;
        tc "in-place code write (frame version) invalidates, then rebuilds"
          test_version_invalidates;
        tc "COW break during enforced execution rebuilds on the private frame"
          test_cow_break_rebuilds;
        tc "arming a trap inside a hot block splits rebuilt blocks"
          test_trap_set_splits_blocks;
        tc "interrupt at a block boundary sees identical vCPU state"
          test_interrupt_at_boundary;
        tc "decode cache stays bounded under view churn"
          test_decode_cache_bounded_under_view_churn;
        tc "a second identical guest publishes no body"
          test_second_guest_publishes_nothing;
        tc "boot records every code page's true digest"
          test_boot_records_true_digests;
        tc "a recovery fill decodes the frame's new content, not the old"
          test_recovery_fill_decodes_new_content;
        tc "a bare Os.create runs the fast engine" test_default_engine_is_fast;
        tc "enforced faulted run: fingerprint parity across the matrix"
          test_enforced_matrix;
      ] );
  ]
