(* The software TLBs (lib/mem/tlb.ml + the Os fast paths): coherence
   under view switches, COW breaks and in-place recovery writes, dTLB
   visibility of new mappings and warm entries kept across RAM growth,
   view-tag survival, never-reused view ids, and the load-bearing
   property that the fast engine is behavior-invisible — a fast guest
   and a reference guest retire the same instructions, charge the same
   cycles, emit the same traces and capture identical stats, faults and
   all. *)

module Os = Fc_machine.Os
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Governor = Fc_core.Governor
module View = Fc_core.View
module Stats = Fc_core.Stats
module Layout = Fc_kernel.Layout
module Image = Fc_kernel.Image
module Ept = Fc_mem.Ept
module App = Fc_apps.App
module Profiles = Fc_benchkit.Profiles
module Fault = Fc_faults.Fault
module Frand = Fc_faults.Frand
module Injector = Fc_faults.Injector
module Snapshot = Fc_snapshot.Snapshot
module J = Fc_obs.Jsonx

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let profiles () = Lazy.force Test_env.profiles

let counters os =
  let m = Fc_obs.Obs.metrics (Os.obs os) in
  fun key -> Option.value ~default:0 (Fc_obs.Metrics.find m key)

(* ---------------- the Tlb module itself ---------------- *)

module Tlb = Fc_mem.Tlb

let test_tlb_direct_mapped () =
  let t = Tlb.create ~bits:2 ~payload:0 () in
  check_int "2^bits entries" 4 (Tlb.size t);
  let e = Tlb.slot t 5 in
  Tlb.fill e ~tag:5 ~stamp:1 ~frame:7 ~version:3 ~bytes:Bytes.empty ~payload:9;
  check_int "tagged" 5 (Tlb.slot t 5).Tlb.tag;
  (* page 9 maps to the same slot (9 land 3 = 5 land 3): a conflicting
     fill evicts *)
  let e9 = Tlb.slot t 9 in
  check_bool "conflict slot" true (e == e9);
  check_bool "miss reads as wrong tag" true (e9.Tlb.tag <> 9);
  Tlb.invalidate_all t;
  check_int "invalidated" Tlb.no_tag (Tlb.slot t 5).Tlb.tag

(* ---------------- fetch-path coherence ---------------- *)

let image = lazy (Image.build_exn ())

(* A text address the view remaps to different bytes than the original
   kernel: warming the iTLB there and then changing the translation is
   exactly the staleness the tag/version protocol must catch. *)
let divergent_gva os view =
  let img = Lazy.force image in
  let base = Image.text_base img in
  let rec go a =
    if a >= base + 0x40000 then Alcotest.fail "no divergent byte found"
    else if
      View.covers view ~gva:a && View.read_code view ~gva:a <> Os.fetch_code os a
    then a
    else go (a + 1)
  in
  go base

(* Mirror the facechange switch-in: quiet directory installs plus a tag
   swap — nothing is flushed, and the active tag names the view. *)
let install_view os view =
  let ept = Os.ept os in
  List.iter
    (fun (dir, tbl) -> Ept.install_dir ept ~dir (Some tbl))
    (View.tables view);
  Ept.set_view ept ~view:(View.index view)

let test_view_switch_invalidates_itlb () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let cfg = Fc_benchkit.Profiles.config_of (profiles ()) "top" in
  let v = View.build ~hyp cfg in
  let g = divergent_gva os v in
  let before = Os.fetch_code os g in
  (* warm the iTLB on the original translation, then switch: the active
     tag changes, so the warm entry must not be served *)
  check_bool "warm fetch stable" true (Os.fetch_code os g = before);
  install_view os v;
  check_bool "post-switch fetch sees the view, not the stale TLB entry"
    true
    (Os.fetch_code os g = View.read_code v ~gva:g);
  check_bool "view really differs" true (Os.fetch_code os g <> before);
  View.destroy v

let test_cow_break_visible_on_next_fetch () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let cfg = Fc_benchkit.Profiles.config_of (profiles ()) "top" in
  let v1 = View.build ~hyp cfg in
  (* a byte-identical sibling forces v1's pages into shared frames, so
     the write below must break COW: a fresh frame is spliced into the
     installed table with no directory install and no tag change — only
     the version touch on the displaced frame can invalidate the TLB *)
  let v2 = View.build ~hyp cfg in
  let g = divergent_gva os v1 in
  install_view os v1;
  check_bool "warm fetch under the view" true
    (Os.fetch_code os g = View.read_code v1 ~gva:g);
  View.write_code v1 ~gva:g 0x90;
  check_bool "the write privatized a shared frame" true (View.cow_breaks v1 > 0);
  check_bool "next fetch sees the recovery write" true
    (Os.fetch_code os g = Some 0x90);
  check_bool "sibling view unaffected" true
    (View.read_code v2 ~gva:g <> Some 0x90);
  View.destroy v2;
  View.destroy v1

let test_inplace_recovery_visible_on_next_fetch () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let cfg = Fc_benchkit.Profiles.config_of (profiles ()) "top" in
  (* private frames: the recovery write lands in place, and only the
     frame-version check can invalidate the warm iTLB entry *)
  let v = View.build ~hyp ~share_frames:false cfg in
  let g = divergent_gva os v in
  install_view os v;
  check_bool "warm fetch under the view" true
    (Os.fetch_code os g = View.read_code v ~gva:g);
  View.write_code v ~gva:g 0x90;
  check_int "no COW involved" 0 (View.cow_breaks v);
  check_bool "next fetch sees the in-place write" true
    (Os.fetch_code os g = Some 0x90);
  View.destroy v

let test_dtlb_sees_new_mappings () =
  let os = Os.create (Lazy.force image) in
  (* pid 1 does not exist yet: its kernel stack page is unmapped, and
     the dTLB must not cache that negative answer *)
  let a = Layout.kstack_top ~pid:1 - 4 in
  check_bool "unmapped before spawn" true (Os.read_guest_byte os a = None);
  let (_ : Process.t) =
    Os.spawn os ~name:"x" [ Fc_machine.Action.Exit ]
  in
  check_bool "mapped after spawn" true (Os.read_guest_byte os a <> None)

(* Guest RAM is add-only, so growth leaves every warm dTLB entry valid:
   spawning a process maps its kernel stack, and a kernel-data byte read
   before it is still a dTLB hit after it. *)
let test_dtlb_survives_ram_growth () =
  let os = Os.create (Lazy.force image) in
  let a = Layout.current_task_ptr_cpu ~vid:0 in
  let before = Os.read_guest_byte os a in
  check_bool "kernel data is mapped" true (before <> None);
  let (_ : Process.t) = Os.spawn os ~name:"x" [ Fc_machine.Action.Exit ] in
  let c = counters os in
  let hits = c "tlb.d_hits" and misses = c "tlb.d_misses" in
  check_bool "same byte after the spawn" true (Os.read_guest_byte os a = before);
  check_int "the read is a dTLB hit" (hits + 1) (c "tlb.d_hits");
  check_int "with no new miss" misses (c "tlb.d_misses")

let test_word_access_roundtrip () =
  let os = Os.create (Lazy.force image) in
  let a = Layout.kstack_top ~pid:0 - 8 in
  (match Os.read_guest_u32 os a with
  | None -> Alcotest.fail "kernel stack unmapped"
  | Some _ -> ());
  (* a u32 straddling a page boundary takes the byte path; one within a
     page takes the paired-u16 path — both must agree with byte reads *)
  let check_at addr =
    match Os.read_guest_u32 os addr with
    | None -> ()
    | Some w ->
        let byte i = Option.get (Os.read_guest_byte os (addr + i)) in
        check_int
          (Printf.sprintf "u32 at 0x%x composes from bytes" addr)
          (byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24))
          w
  in
  check_at a;
  check_at (Layout.kstack_top ~pid:0 - Layout.page_size - 2)

(* ---------------- view-tag survival across switches ---------------- *)

let test_seen_view_reentry_keeps_itlb_warm () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let p = profiles () in
  let v1 = View.build ~hyp (Profiles.config_of p "top") in
  let v2 = View.build ~hyp (Profiles.config_of p "apache") in
  let g = divergent_gva os v1 in
  install_view os v1;
  let expect = View.read_code v1 ~gva:g in
  check_bool "warm fetch under v1" true (Os.fetch_code os g = expect);
  (* bounce through v2 and back: both installs are pure tag swaps, so
     v1's warm entry must survive and revalidate by compare on re-entry *)
  install_view os v2;
  install_view os v1;
  let c = counters os in
  let hits = c "tlb.i_hits" and misses = c "tlb.i_misses" in
  check_bool "re-entry fetch reads the view" true (Os.fetch_code os g = expect);
  check_int "re-entry is an iTLB hit" (hits + 1) (c "tlb.i_hits");
  check_int "no iTLB miss on re-entry" misses (c "tlb.i_misses");
  View.destroy v2;
  View.destroy v1

let test_cow_break_invalidates_only_broken_page () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let cfg = Fc_benchkit.Profiles.config_of (profiles ()) "top" in
  let v1 = View.build ~hyp cfg in
  (* byte-identical sibling: v1 and v2 share frames, so a write to v1
     breaks COW rather than landing in place *)
  let v2 = View.build ~hyp cfg in
  let g = divergent_gva os v1 in
  (* a second warm page, untouched by the break, to prove the
     invalidation really is frame-targeted *)
  let g2 = g + Fc_kernel.Layout.page_size in
  install_view os v2;
  let before = Os.fetch_code os g in
  let before2 = Os.fetch_code os g2 in
  check_bool "warm fetch under v2" true (before = View.read_code v2 ~gva:g);
  let c = counters os in
  (* the COW break copies the shared frame into a fresh private one for
     v1 and touches the displaced shared frame's version: only
     translations through that one frame die — v2 pays a single
     revalidation miss on the broken page, keeps every other warm entry,
     and never observes the writer's private byte *)
  View.write_code v1 ~gva:g 0x90;
  check_bool "the write privatized a shared frame" true (View.cow_breaks v1 > 0);
  let misses = c "tlb.i_misses" in
  check_bool "v2's fetch is unchanged" true (Os.fetch_code os g = before);
  check_int "one revalidation miss on the broken page" (misses + 1)
    (c "tlb.i_misses");
  check_bool "v2 never sees v1's private byte" true (before <> Some 0x90);
  let hits = c "tlb.i_hits" in
  check_bool "the refilled entry serves the same bytes" true
    (Os.fetch_code os g = before);
  check_bool "v2's unrelated page stayed warm" true
    (Os.fetch_code os g2 = before2);
  check_int "both as iTLB hits" (hits + 2) (c "tlb.i_hits");
  install_view os v1;
  check_bool "v1 sees its own write after switch-in" true
    (Os.fetch_code os g = Some 0x90);
  View.destroy v2;
  View.destroy v1

(* Back to the full view: [view]'s directories get their original
   tables again, under view id 0. *)
let install_full_view os hyp view =
  let ept = Os.ept os in
  List.iter
    (fun (dir, _) -> Ept.install_dir ept ~dir (Hyp.original_table hyp ~dir))
    (View.tables view);
  Ept.set_view ept ~view:Facechange.full_view_index

(* View ids are minted once per machine and never reused, so an unload
   invalidates nothing: the dead view's id is never active again, and
   every other view's cached translations stay warm.  Fresh ids survive
   an unload and reload, a second [enable] on the same machine and a
   snapshot roundtrip. *)
let test_view_ids_never_repeat () =
  let os = Os.create (Lazy.force image) in
  let hyp = Hyp.attach os in
  let p = profiles () in
  let load fc app = Facechange.load_view fc (Profiles.config_of p app) in
  let fc = Facechange.enable hyp in
  let i1 = load fc "top" in
  let i2 = load fc "apache" in
  let v1 = Option.get (Facechange.find_view fc i1) in
  let g = divergent_gva os v1 in
  install_view os v1;
  let expect = Os.fetch_code os g in
  let c = counters os in
  Facechange.unload_view fc i2;
  let hits = c "tlb.i_hits" and misses = c "tlb.i_misses" in
  check_bool "v1 fetch after unloading v2" true (Os.fetch_code os g = expect);
  check_int "v1's warm entry survived the unload" (hits + 1) (c "tlb.i_hits");
  check_int "no iTLB miss" misses (c "tlb.i_misses");
  install_full_view os hyp v1;
  let i3 = load fc "apache" in
  check_bool "a reload mints a fresh id" true (not (List.mem i3 [ i1; i2 ]));
  Facechange.disable fc;
  let fc = Facechange.enable hyp in
  let i4 = load fc "top" in
  check_bool "a second enable mints a fresh id" true
    (not (List.mem i4 [ i1; i2; i3 ]));
  match Snapshot.decode (Snapshot.encode (Snapshot.capture ~fc ~hyp os)) with
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)
  | Ok s ->
      let r = Snapshot.restore ~image:(Lazy.force image) s in
      let i5 = load (Option.get r.Snapshot.r_fc) "apache" in
      check_bool "a load after a restore mints a fresh id" true
        (not (List.mem i5 [ i1; i2; i3; i4 ]))

(* ---------------- behavior parity: reference vs fast ---------------- *)

(* The fingerprint machinery lives in test/differential.ml. *)
let run_enforced ?trace ~engine ~fault_seed () =
  Differential.run ?trace ~profiles:(profiles ()) ~engine ~fault_seed ()

let test_parity_enforced_run () =
  let fast, en = run_enforced ~engine:Os.Fast ~fault_seed:1 () in
  let reference, ren = run_enforced ~engine:Os.Reference ~fault_seed:1 () in
  Differential.check_parity ~label:"fast-vs-reference" ~expect:reference
    ~got:fast;
  check_bool "fast: iTLB hits" true (en.Differential.en_itlb_hits > 0);
  check_int "reference: iTLB silent" 0 ren.Differential.en_itlb_hits

(* The shared test image's body memo was filled by the profiling
   sessions, a different guest mix (and by whatever ran before), so the
   first fast guest runs warm; its twin on a freshly built image decodes
   every block itself.  Memo bodies are shared only where they are
   exact, so both must agree with the reference on every observable and
   with each other on every engine counter.  The warm arm is compared
   first: it is the one a content-blind memo would send through code the
   run must instead recover.  A third fast run arms only the coverage
   hook, so step runs retire batched: its coverage runs, like every
   other observable, must match the traced run's. *)
let prop_tlb_invisible =
  QCheck.Test.make
    ~name:
      "TLB'd and TLB-disabled guests are indistinguishable under faults, \
       on a cold or a warm image"
    ~count:8 (QCheck.int_range 1 1_000_000) (fun seed ->
      let warm, warm_en = run_enforced ~engine:Os.Fast ~fault_seed:seed () in
      warm = fst (run_enforced ~engine:Os.Reference ~fault_seed:seed ())
      && (let batched, batched_en =
            run_enforced ~trace:false ~engine:Os.Fast ~fault_seed:seed ()
          in
          { batched with Differential.fp_insn_digest = warm.fp_insn_digest }
          = warm
          && batched_en = warm_en)
      &&
      let cold, cold_en =
        Differential.run
          ~profiles:(Profiles.with_image (profiles ()) (Image.build_exn ()))
          ~engine:Os.Fast ~fault_seed:seed ()
      in
      cold = warm && cold_en = warm_en)

let suites =
  [
    ( "tlb",
      let tc n f = Alcotest.test_case n `Quick f in
      [
        tc "direct-mapped slots, conflict eviction, invalidate_all"
          test_tlb_direct_mapped;
        tc "view switch invalidates warm iTLB entries"
          test_view_switch_invalidates_itlb;
        tc "COW break visible on the next fetch"
          test_cow_break_visible_on_next_fetch;
        tc "in-place recovery write visible on the next fetch"
          test_inplace_recovery_visible_on_next_fetch;
        tc "dTLB never caches negative translations"
          test_dtlb_sees_new_mappings;
        tc "RAM growth keeps warm dTLB entries" test_dtlb_survives_ram_growth;
        tc "word-level u32 access agrees with byte reads"
          test_word_access_roundtrip;
        tc "seen-view re-entry keeps iTLB entries warm (no flush)"
          test_seen_view_reentry_keeps_itlb_warm;
        tc "COW break invalidates only the broken page's frame"
          test_cow_break_invalidates_only_broken_page;
        tc "view ids never repeat: unload, re-enable and restore mint fresh ids"
          test_view_ids_never_repeat;
        tc "enforced faulted run: full fingerprint parity"
          test_parity_enforced_run;
      ] );
    ( "tlb.properties",
      List.map QCheck_alcotest.to_alcotest [ prop_tlb_invisible ] );
  ]
