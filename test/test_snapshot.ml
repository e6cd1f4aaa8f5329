(* Deterministic snapshot/restore (lib/snapshot):

   - the split-run differential property — snapshot at round k, push the
     machine through the wire format, restore, run to the end: the
     outcome, stats, instruction/cycle totals and both trace digests
     must be identical to an uninterrupted run, on both engines under
     random governed fault plans;
   - decode∘encode = id on captured machines (QCheck);
   - corrupt-input totality: bit flips, truncations, version bumps and
     lengths near max_int return typed errors naming section and
     offset — never raise;
   - restore identity: capture, encode, decode, restore and capture
     again gives the same snapshot (METR as a multiset);
   - the version-6 bytes of every variant constructor, pinned by digest;
   - a capture from inside [Os.run] (a VM-exit handler) is refused;
   - warm start: a fleet cell booted from wire-format snapshots
     fingerprints identically to a cold boot;
   - live migration: pre-copy + stop-and-copy lands a guest that
     finishes with the control's digest;
   - the bounded recovery log: the retention cap and the dropped
     counter. *)

module Os = Fc_machine.Os
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Governor = Fc_core.Governor
module Stats = Fc_core.Stats
module Recovery_log = Fc_core.Recovery_log
module App = Fc_apps.App
module Profiles = Fc_benchkit.Profiles
module Fault = Fc_faults.Fault
module Frand = Fc_faults.Frand
module Injector = Fc_faults.Injector
module Snapshot = Fc_snapshot.Snapshot
module Migrate = Fc_host.Migrate
module Metrics = Fc_obs.Metrics
module J = Fc_obs.Jsonx
module Action = Fc_machine.Action
module Irq_paths = Fc_kernel.Irq_paths
module Phys = Fc_mem.Phys_mem

let profiles () = Lazy.force Test_env.profiles
let image () = Lazy.force Test_env.image

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ---------------- the split-run differential property ---------------- *)

type fp = {
  fp_outcome : string;
  fp_stats : string;
  fp_instructions : int;
  fp_cycles : int;
  fp_insn : int;
  fp_events : int;
}

(* Same guest construction as test/differential.ml (minus the probe —
   snapshots capture machines, not probes): a seed-picked app under its
   enforced view, a companion, a governed random fault plan, full
   tracing. *)
let setup ~engine ~fault_seed =
  let r = Frand.create (fault_seed lxor 0x7157) in
  let pool = [ "top"; "apache"; "gvim"; "bash"; "gzip" ] in
  let name = Frand.pick r pool in
  let n = 4 + Frand.int r 7 in
  let plan = Fault.gen ~seed:fault_seed ~rounds:120 ~n in
  let app = App.find_exn name in
  let os =
    Os.create ~config:(App.os_config app) ~engine (Profiles.image (profiles ()))
  in
  let ih = ref 0 and eh = ref 0 in
  let arm_traces os =
    Os.set_trace os (Some (fun a len -> ih := (((!ih * 31) + a) * 31) + len));
    Os.set_event_trace os (Some (fun ev -> eh := (!eh * 31) + Hashtbl.hash ev))
  in
  arm_traces os;
  let hyp = Hyp.attach os in
  let fc = Facechange.enable ~governor:Governor.default_policy hyp in
  let (_ : int) =
    Facechange.load_view fc (Profiles.config_of (profiles ()) name)
  in
  let (_ : Process.t) = Os.spawn os ~name (app.App.script 4) in
  let companion = App.find_exn "top" in
  let (_ : Process.t) = Os.spawn os ~name:"companion" (companion.App.script 2) in
  let inj = Injector.arm ~os ~hyp ~fc plan in
  (os, hyp, fc, inj, ih, eh, arm_traces)

let budget = 20_000

let finalize ~outcome ~os ~fc ~ih ~eh =
  {
    fp_outcome = outcome;
    fp_stats = J.to_string (Stats.to_json (Stats.capture fc));
    fp_instructions = Os.instructions os;
    fp_cycles = Os.cycles os;
    fp_insn = !ih;
    fp_events = !eh;
  }

let continuous ~engine ~fault_seed =
  let os, _hyp, fc, inj, ih, eh, _ = setup ~engine ~fault_seed in
  let outcome =
    match Os.run ~max_rounds:budget os with
    | () -> "ok"
    | exception Os.Guest_panic m -> "panic: " ^ m
  in
  Injector.disarm inj;
  finalize ~outcome ~os ~fc ~ih ~eh

(* Snapshot at round [at], encode, decode, restore, run the rest.  The
   trace refs survive the handoff: segment 2 keeps folding into the same
   digests, exactly like an uninterrupted run would. *)
let split ~engine ~fault_seed ~at =
  let os, hyp, fc, inj, ih, eh, arm_traces = setup ~engine ~fault_seed in
  match Os.run ~until:(fun t -> Os.round t >= at) ~max_rounds:budget os with
  | exception Os.Guest_panic m ->
      Injector.disarm inj;
      finalize ~outcome:("panic: " ^ m) ~os ~fc ~ih ~eh
  | () -> (
      let cursor = Injector.cursor inj ~position:(Os.round os) in
      let snap = Snapshot.capture ~cursor ~fc ~hyp os in
      Injector.disarm inj;
      match Snapshot.decode (Snapshot.encode snap) with
      | Error e -> Alcotest.fail (Snapshot.error_to_string e)
      | Ok s -> (
          let r = Snapshot.restore ~image:(image ()) s in
          let os2 = r.Snapshot.r_os in
          arm_traces os2;
          match (r.Snapshot.r_fc, r.Snapshot.r_inj) with
          | Some fc2, Some inj2 ->
              let outcome =
                match Os.run ~max_rounds:(budget - Os.round os2) os2 with
                | () -> "ok"
                | exception Os.Guest_panic m -> "panic: " ^ m
              in
              Injector.disarm inj2;
              finalize ~outcome ~os:os2 ~fc:fc2 ~ih ~eh
          | _ -> Alcotest.fail "restore dropped the fc or injector layer"))

let check_fp ~label expect got =
  check_string (label ^ ": outcome") expect.fp_outcome got.fp_outcome;
  check_string (label ^ ": stats") expect.fp_stats got.fp_stats;
  check_int (label ^ ": instructions") expect.fp_instructions
    got.fp_instructions;
  check_int (label ^ ": cycles") expect.fp_cycles got.fp_cycles;
  check_int (label ^ ": instruction trace") expect.fp_insn got.fp_insn;
  check_int (label ^ ": event trace") expect.fp_events got.fp_events

let seeds_per_arm = 8

let differential_case ~engine () =
  for i = 0 to seeds_per_arm - 1 do
    let fault_seed = 9000 + (97 * i) in
    (* snapshot rounds spread over the fault plan's active window *)
    let at = 10 + (Frand.mix fault_seed 1 land 0x3F) in
    let label =
      Printf.sprintf "seed %d @%d (%s)" fault_seed at (Os.engine_name engine)
    in
    let expect = continuous ~engine ~fault_seed in
    let got = split ~engine ~fault_seed ~at in
    check_fp ~label expect got
  done

(* ---------------- roundtrip + totality ---------------- *)

(* A captured machine for codec tests: short governed run, snapshot with
   every layer. *)
let capture_machine ~fault_seed ~at =
  let os, hyp, fc, inj, _, _, _ =
    setup
      ~engine:(if fault_seed land 1 = 0 then Os.Fast else Os.Reference)
      ~fault_seed
  in
  (match Os.run ~until:(fun t -> Os.round t >= at) ~max_rounds:budget os with
  | () -> ()
  | exception Os.Guest_panic _ -> ());
  let cursor = Injector.cursor inj ~position:(Os.round os) in
  let snap = Snapshot.capture ~meta:[ ("kind", "test") ] ~cursor ~fc ~hyp os in
  Injector.disarm inj;
  snap

(* A live frame carries its MD5 when the capturing pool knew it, and
   always after a decode (the FRAM section stores every page's), so two
   snapshots of one machine state agree up to which digests they carry.
   Every digest carried must be its frame's. *)
let forget_digests (z : Os.frozen) =
  let z_live =
    List.map (fun l -> { l with Phys.zl_digest = None }) z.Os.z_phys.Phys.z_live
  in
  { z with Os.z_phys = { z.Os.z_phys with Phys.z_live } }

let digests_true (z : Os.frozen) =
  List.for_all
    (fun l ->
      match l.Phys.zl_digest with
      | None -> true
      | Some d -> Digest.bytes l.Phys.zl_bytes = d)
    z.Os.z_phys.Phys.z_live

let same_snapshot (a : Snapshot.t) (b : Snapshot.t) =
  digests_true a.s_os && digests_true b.s_os
  && { a with s_os = forget_digests a.s_os } = { b with s_os = forget_digests b.s_os }

let every_digest (s : Snapshot.t) =
  List.for_all (fun l -> l.Phys.zl_digest <> None) s.s_os.Os.z_phys.Phys.z_live

let prop_roundtrip =
  QCheck.Test.make ~name:"decode(encode snapshot) = snapshot" ~count:12
    (QCheck.int_range 1 100_000) (fun seed ->
      let snap = capture_machine ~fault_seed:seed ~at:(8 + (seed mod 40)) in
      match Snapshot.decode (Snapshot.encode snap) with
      | Ok s -> same_snapshot s snap && every_digest s
      | Error e -> QCheck.Test.fail_report (Snapshot.error_to_string e))

let prop_corrupt_total =
  QCheck.Test.make
    ~name:"corrupt snapshots decode to typed errors (never raise)" ~count:60
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let snap = capture_machine ~fault_seed:11 ~at:12 in
      let wire = Bytes.of_string (Snapshot.encode snap) in
      let r = Frand.create seed in
      let mutated =
        match Frand.int r 3 with
        | 0 ->
            (* single bit flip *)
            let i = Frand.int r (Bytes.length wire) in
            Bytes.set wire i
              (Char.chr (Char.code (Bytes.get wire i) lxor (1 lsl Frand.int r 8)));
            Bytes.to_string wire
        | 1 ->
            (* truncation *)
            Bytes.sub_string wire 0 (Frand.int r (Bytes.length wire))
        | _ ->
            (* version bump *)
            Bytes.set wire 4 (Char.chr (1 + Frand.int r 250));
            Bytes.to_string wire
      in
      if mutated = Bytes.to_string wire && Frand.int r 3 = 0 then true
      else
        match Snapshot.decode mutated with
        | Ok _ ->
            (* a flip inside an unverified region (e.g. flipping a CRC
               byte to its own value) cannot happen: every payload byte
               is CRC'd and the header is fully validated, so Ok means
               the mutation was the identity *)
            String.equal mutated (Snapshot.encode snap)
        | Error e ->
            String.length e.Snapshot.section > 0 && e.Snapshot.offset >= 0)

let golden_wire () =
  In_channel.with_open_bin "../bench/golden.fcsnap" In_channel.input_all

let golden () =
  match Snapshot.decode (golden_wire ()) with
  | Ok s -> s
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)

(* CRC-32 (IEEE), bit by bit: reseals a section after a deliberate edit *)
let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let corrupt_errors_name_sections () =
  let snap = capture_machine ~fault_seed:5 ~at:15 in
  let wire = Snapshot.encode snap in
  (* truncated header *)
  (match Snapshot.decode (String.sub wire 0 7) with
  | Error { section = "header"; _ } -> ()
  | Error e -> Alcotest.fail ("expected header error, got " ^ Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "truncated header decoded");
  (* bad magic *)
  (match Snapshot.decode ("XXXX" ^ String.sub wire 4 (String.length wire - 4)) with
  | Error { section = "header"; offset = 0; _ } -> ()
  | Error e -> Alcotest.fail ("expected magic error, got " ^ Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "bad magic decoded");
  (* version bump: offset names the version field *)
  (let b = Bytes.of_string wire in
   Bytes.set b 4 '\xFF';
   match Snapshot.decode (Bytes.to_string b) with
   | Error { section = "header"; offset = 4; _ } -> ()
   | Error e -> Alcotest.fail ("expected version error, got " ^ Snapshot.error_to_string e)
   | Ok _ -> Alcotest.fail "bumped version decoded");
  (* payload corruption: the error names the section tag *)
  (let b = Bytes.of_string wire in
   let i = String.length wire - 3 in
   Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
   match Snapshot.decode (Bytes.to_string b) with
   | Error e ->
       check_bool "section tag is 4 chars" true (String.length e.Snapshot.section = 4)
   | Ok _ -> Alcotest.fail "payload corruption decoded");
  (* lengths near max_int, in the golden: the first section's length and
     the first string of a META payload whose CRC is valid *)
  let golden = golden_wire () in
  let with_int s off v =
    let b = Bytes.of_string s in
    Bytes.set_int64_le b off (Int64.of_int v);
    Bytes.to_string b
  in
  let meta_error label offset input =
    match Snapshot.decode input with
    | Error { section = "META"; offset = o; _ } when o = offset -> ()
    | Error e -> Alcotest.failf "%s: got %s" label (Snapshot.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: decoded" label
  in
  meta_error "section length max_int" 16 (with_int golden 16 max_int);
  meta_error "section length max_int - 20" 16 (with_int golden 16 (max_int - 20));
  let plen = Int64.to_int (String.get_int64_le golden 16) in
  let payload = with_int (String.sub golden 28 plen) 8 max_int in
  let b = Bytes.of_string golden in
  Bytes.blit_string payload 0 b 28 plen;
  Bytes.set_int32_le b 24 (Int32.of_int (crc32 payload));
  meta_error "string length max_int" 44 (Bytes.to_string b)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* An older wire format must come back as the typed unsupported-version
   error naming both versions, never a silent partial decode. *)
let version_rejected v () =
  let snap = capture_machine ~fault_seed:9 ~at:12 in
  let b = Bytes.of_string (Snapshot.encode snap) in
  Bytes.set b 4 (Char.chr v);
  match Snapshot.decode (Bytes.to_string b) with
  | Error ({ section = "header"; offset = 4; _ } as e) ->
      let msg = Snapshot.error_to_string e in
      check_bool "error names the rejected version" true
        (contains msg (Printf.sprintf "unsupported format version %d" v));
      check_bool "error names the expected version" true
        (contains msg (Printf.sprintf "expect %d" Snapshot.version))
  | Error e ->
      Alcotest.fail ("expected version error, got " ^ Snapshot.error_to_string e)
  | Ok _ -> Alcotest.failf "previous-version (v%d) snapshot decoded" v

(* A capture from inside [Os.run] sees a kernel invocation in flight
   (its registers and dispatch queue live on the host stack, not in the
   frozen state), so it is refused whether or not the trace is armed;
   once the run returns, the same machine captures. *)
let capture_in_exit_handler_refused () =
  List.iter
    (fun armed ->
      let label = if armed then "armed" else "disarmed" in
      let os = Os.create (image ()) in
      if armed then Fc_obs.Trace.arm (Fc_obs.Obs.trace (Os.obs os));
      let outcomes = ref [] in
      Os.set_trap os (Os.resolve_exn os "sys_getpid");
      Os.set_exit_handler os (fun os _ exit ->
          match exit with
          | Os.Exit_breakpoint _ ->
              let o =
                match Os.freeze os ~table_id:(fun _ -> 0) with
                | _ -> "frozen"
                | exception Invalid_argument _ -> "refused"
              in
              outcomes := o :: !outcomes;
              Os.Resume
          | Os.Exit_invalid_opcode | Os.Exit_fault _ -> Os.Panic "unexpected exit");
      ignore (Os.spawn os ~name:"p" Action.[ Syscall "getpid"; Exit ] : Process.t);
      Os.run os;
      check_bool (label ^ ": the handler ran, mid-syscall, and was refused") true
        (!outcomes = [ "refused" ]);
      check_bool (label ^ ": after the run the machine captures") true
        (match Snapshot.capture os with _ -> true))
    [ false; true ]

let empty_and_trailing () =
  (match Snapshot.decode "" with
  | Error { section = "header"; _ } -> ()
  | _ -> Alcotest.fail "empty input must be a header error");
  let snap = capture_machine ~fault_seed:6 ~at:10 in
  let wire = Snapshot.encode snap in
  match Snapshot.decode (wire ^ "garbage") with
  | Error { section = "trailer"; _ } -> ()
  | Error e -> Alcotest.fail ("expected trailer error, got " ^ Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "trailing bytes decoded"

(* ---------------- restore identity ---------------- *)

(* Capture, encode, decode, restore, capture again: what restore rebuilt
   must be exactly what capture recorded.  METR is compared as a
   multiset, since restore registers labelled family members in another
   order than the run that created them. *)
let restore_identity (snap : Snapshot.t) =
  match Snapshot.decode (Snapshot.encode snap) with
  | Error e -> [ Snapshot.error_to_string e ]
  | Ok s ->
      let r = Snapshot.restore ~image:(image ()) s in
      let os = r.Snapshot.r_os in
      let cursor =
        Option.map (fun i -> Injector.cursor i ~position:(Os.round os)) r.r_inj
      in
      let again =
        Snapshot.capture ~meta:r.r_meta ?cursor ?fc:r.r_fc ?hyp:r.r_hyp os
      in
      let sorted = List.sort compare in
      List.filter_map
        (fun (section, equal) -> if equal then None else Some section)
        [
          ("META", again.s_meta = snap.s_meta);
          ("TABL", again.s_tables = snap.s_tables);
          ( "OSST",
            digests_true again.s_os
            && forget_digests again.s_os = forget_digests snap.s_os );
          ("HYPV", again.s_hyp = snap.s_hyp);
          ("FCCR", again.s_fc = snap.s_fc);
          ("CURS", again.s_cursor = snap.s_cursor);
          ("METR", sorted again.s_metrics = sorted snap.s_metrics);
        ]

(* Governed guests under 8-fault plans, snapshotted every 5 rounds; on
   even seeds the app's view is unloaded at round 20, so saved bindings,
   retired COW breaks and armed itimers are non-empty at some capture
   points. *)
let identity_guest ~seed =
  let r = Frand.create (seed lxor 0x1de7) in
  let pool = [ "top"; "apache"; "gvim"; "tcpdump"; "bash"; "gzip"; "vsftpd"; "eog" ] in
  let name = Frand.pick r pool in
  let app = App.find_exn name in
  let os = Os.create ~config:(App.os_config app) (Profiles.image (profiles ())) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable ~governor:Fc_benchkit.Chaos.chaos_policy hyp in
  let index = Facechange.load_view fc (Profiles.config_of (profiles ()) name) in
  let (_ : Process.t) = Os.spawn os ~name (app.App.script 4) in
  let companion = App.find_exn "top" in
  let (_ : Process.t) = Os.spawn os ~name:"companion" (companion.App.script 2) in
  let inj = Injector.arm ~os ~hyp ~fc (Fault.gen ~seed ~rounds:120 ~n:8) in
  let snaps = ref [] in
  let rec go at =
    let cursor = Injector.cursor inj ~position:(Os.round os) in
    snaps := Snapshot.capture ~meta:[ ("seed", string_of_int seed) ] ~cursor ~fc ~hyp os :: !snaps;
    if seed land 1 = 0 && at = 20 then Facechange.unload_view fc index;
    match Os.run ~until:(fun t -> Os.round t >= at + 5) ~max_rounds:budget os with
    | () -> if Os.round os >= at + 5 then go (at + 5)
    | exception Os.Guest_panic _ -> ()
  in
  go 0;
  Injector.disarm inj;
  List.rev !snaps

let restore_identity_case () =
  let check label snap =
    match restore_identity snap with
    | [] -> ()
    | diffs -> Alcotest.failf "%s: sections differ: %s" label (String.concat " " diffs)
  in
  check "golden" (golden ());
  for seed = 1 to 40 do
    List.iteri
      (fun i snap -> check (Printf.sprintf "seed %d snapshot %d" seed i) snap)
      (identity_guest ~seed)
  done

(* ---------------- the version-6 bytes of every constructor ---------------- *)

(* The golden, edited to hold every variant constructor on the wire: 9
   irq sources, 5 actions, 3 run states, 8 fault kinds, 4 governor
   states, both clocksources and metric value kinds, and — across the
   two values — both engines and both [on_unhandled] answers.  The
   digest of their encodings was recorded from the version-6 writer;
   the version-5 and version-4 ones differed only by the fields later
   versions dropped or replaced.  A swapped tag changes it. *)
let every_constructor (g : Snapshot.t) ~engine ~on_unhandled =
  let os = g.Snapshot.s_os in
  let irqs =
    Irq_paths.
      [ Timer Acpi_pm; Timer_itimer Kvmclock; Keyboard_console; Keyboard_evdev;
        Net_rx_tcp; Net_rx_udp; Net_rx_sniffed_tcp; Net_rx_sniffed_udp; Disk ]
  in
  let script = Action.[ Syscall "read"; Compute 7; Sleep 3; Fault; Exit ] in
  let states = Process.[ Ready; Blocked { yield_id = 5; wake_round = 9 }; Exited ] in
  let proc = List.hd os.Os.z_procs in
  let kinds =
    Fault.
      [ Spurious_ud2 { frac = 1; count = 2 }; Broken_rbp { frac = 3 };
        Cyclic_rbp { frac = 4 }; Flip_view_byte { frac = 5 }; Evict_frames;
        Miss_breakpoints { count = 6 }; Truncated_config; Overlapping_config ]
  in
  let app st =
    { Governor.za_st = st; za_recent = [ 10; 20 ]; za_degradations = 1;
      za_degraded_at = 30; za_unhandled = 2 }
  in
  let gov =
    { Governor.zg_policy = { Governor.default_policy with Governor.on_unhandled };
      zg_apps =
        List.mapi (fun i st -> (Printf.sprintf "app%d" i, app st))
          Governor.[ Narrow; Throttled; Degraded; Quarantined ] }
  in
  {
    g with
    Snapshot.s_os =
      {
        os with
        Os.z_engine = engine;
        z_config =
          { os.Os.z_config with
            Os.background_irqs = List.mapi (fun i s -> (s, 1000 + i)) irqs };
        z_procs =
          List.map (fun st -> { proc with Os.zp_script = script; zp_state = st }) states;
      };
    s_fc =
      Option.map (fun fc -> { fc with Facechange.zf_governor = Some gov }) g.Snapshot.s_fc;
    s_cursor =
      Some
        { Injector.cu_seed = 77;
          cu_events = List.mapi (fun i kind -> { Fault.at_round = i; kind }) kinds;
          cu_position = 3; cu_queue = kinds; cu_miss_budget = 4 };
  }

let constructor_bytes_pinned () =
  let g = golden () in
  let a = every_constructor g ~engine:Os.Fast ~on_unhandled:`Degrade in
  let b = every_constructor g ~engine:Os.Reference ~on_unhandled:`Die in
  let wa = Snapshot.encode a and wb = Snapshot.encode b in
  check_string "digest of the version-6 bytes" "8ca9018578ebc0102ece0c1d560abdf6"
    (Digest.to_hex (Digest.string (wa ^ wb)));
  check_bool "decode (encode a) = a" true (Snapshot.decode wa = Ok a);
  check_bool "decode (encode b) = b" true (Snapshot.decode wb = Ok b)

(* ---------------- save / load ---------------- *)

let save_load_roundtrip () =
  let snap = capture_machine ~fault_seed:21 ~at:14 in
  let path = Filename.temp_file "fcsnap" ".fcsnap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save snap path;
      match Snapshot.load path with
      | Ok s ->
          check_bool "load = save" true (same_snapshot s snap);
          check_bool "every loaded frame has its digest" true (every_digest s)
      | Error e -> Alcotest.fail (Snapshot.error_to_string e));
  match Snapshot.load "/nonexistent/snapshot.fcsnap" with
  | Error { section = "file"; _ } -> ()
  | _ -> Alcotest.fail "missing file must be a typed error"

(* ---------------- warm start ---------------- *)

let warm_start_parity () =
  let cold =
    Fc_benchkit.Fleet.run_cell (profiles ()) ~seed:7 ~domains:1 ~guests:6
  in
  let warm =
    Fc_benchkit.Fleet.run_cell ~warm_start:true (profiles ()) ~seed:7
      ~domains:1 ~guests:6
  in
  check_string "warm-start fleet fingerprint = cold boot"
    cold.Fc_benchkit.Fleet.c_report.Fc_host.Fleet.r_fingerprint
    warm.Fc_benchkit.Fleet.c_report.Fc_host.Fleet.r_fingerprint

(* ---------------- live migration ---------------- *)

let migrate_parity () =
  let t = Fc_benchkit.Migration.run ~fast:true (profiles ()) in
  check_bool "every migrated guest matches its control" true
    t.Fc_benchkit.Migration.g_parity_ok;
  check_int "no panics under governed migration" 0
    t.Fc_benchkit.Migration.g_panics;
  List.iter
    (fun (r : Fc_benchkit.Migration.row) ->
      check_bool "handoff happened" true r.Fc_benchkit.Migration.w_migrated;
      check_bool "final dirty set within the live set" true
        (r.Fc_benchkit.Migration.w_final_dirty
        <= r.Fc_benchkit.Migration.w_pages_total);
      check_bool "wire bytes are non-trivial" true
        (r.Fc_benchkit.Migration.w_snapshot_bytes > 1024))
    t.Fc_benchkit.Migration.g_rows

let migrate_precopy_drains () =
  (* more pre-copy rounds must not grow the final dirty set for the same
     seed: each extra iteration re-ships what the guest dirtied in a
     shorter trailing window *)
  let gseed = 424242 in
  let one precopy_rounds =
    let app = App.find_exn "top" in
    let os =
      Os.create ~config:(App.os_config app) (Profiles.image (profiles ()))
    in
    let hyp = Hyp.attach os in
    let fc = Facechange.enable hyp in
    let (_ : int) =
      Facechange.load_view fc (Profiles.config_of (profiles ()) "top")
    in
    let (_ : Process.t) = Os.spawn os ~name:"top" (app.App.script (4 + (gseed land 1))) in
    Os.run ~until:(fun t -> Os.round t >= 10) ~max_rounds:5_000 os;
    let guest =
      { Migrate.g_os = os; g_hyp = Some hyp; g_fc = Some fc; g_inj = None }
    in
    let dst, rep =
      Migrate.migrate ~image:(image ()) ~precopy_rounds ~window_rounds:8 guest
    in
    check_int "one pre-copy entry per iteration" precopy_rounds
      (List.length rep.Migrate.m_precopy);
    Os.run ~max_rounds:5_000 dst.Migrate.g_os;
    rep
  in
  let r1 = one 1 and r4 = one 4 in
  check_bool "downtime shrinks (or holds) with more pre-copy rounds" true
    (r4.Migrate.m_final_dirty <= r1.Migrate.m_final_dirty);
  check_bool "pre-copy ships more total pages" true
    (r4.Migrate.m_pages_copied >= r1.Migrate.m_pages_copied)

(* ---------------- the bounded recovery log ---------------- *)

let recovery_log_cap () =
  let log = Recovery_log.create ~cap:16 () in
  check_int "cap" 16 (Recovery_log.cap log);
  let entry i =
    {
      Recovery_log.cycle = i * 100;
      pid = 1;
      comm = "burst";
      view_app = "top";
      fault_addr = 0xc0100000 + (i * 2);
      recovered = [ (0xc0100000, 0xc0100040, Printf.sprintf "<f%d+0x0>" i) ];
      instant = [];
      backtrace = [];
      interrupt_context = false;
      unknown_frames = false;
    }
  in
  for i = 0 to 99 do
    Recovery_log.add log (entry i)
  done;
  let retained = List.length (Recovery_log.entries log) in
  check_bool "retained within cap" true (retained <= 16);
  check_int "count = retained + dropped" 100
    (retained + Recovery_log.dropped log);
  check_int "count tracks every add" 100 (Recovery_log.count log);
  (* the dropped counter survives the text round-trip the codec uses *)
  let log2 =
    match Recovery_log.of_string ~cap:16 (Recovery_log.to_string log) with
    | Ok l -> l
    | Error e -> Alcotest.fail e
  in
  Recovery_log.restore_dropped log2 (Recovery_log.dropped log);
  check_int "dropped restored" (Recovery_log.dropped log)
    (Recovery_log.dropped log2);
  check_int "entries restored" retained
    (List.length (Recovery_log.entries log2))

let dropped_gauge_registered () =
  let os = Os.create (image ()) in
  let hyp = Hyp.attach os in
  let (_ : Facechange.t) = Facechange.enable hyp in
  let m = Fc_obs.Obs.metrics (Os.obs os) in
  check_int "fc.recovery_log_dropped starts at 0" 0
    (Option.value ~default:(-1) (Metrics.find m "fc.recovery_log_dropped"))

(* ---------------- registration ---------------- *)

let suites =
  [
    ( "snapshot-differential",
      [
        (* the reference engine (no superblocks, no TLBs) and the fast
           one (superblocks + TLBs + view tags) *)
        Alcotest.test_case "no-sb + no-tlb" `Slow
          (differential_case ~engine:Os.Reference);
        Alcotest.test_case "sb + tlb" `Slow (differential_case ~engine:Os.Fast);
      ] );
    ( "snapshot-codec",
      [
        QCheck_alcotest.to_alcotest prop_roundtrip;
        QCheck_alcotest.to_alcotest prop_corrupt_total;
        Alcotest.test_case "corrupt errors name section and offset" `Quick
          corrupt_errors_name_sections;
        Alcotest.test_case "previous-version (v1) stream rejected" `Quick
          (version_rejected 1);
        Alcotest.test_case "previous-version (v2) stream rejected" `Quick
          (version_rejected 2);
        Alcotest.test_case "previous-version (v3) stream rejected" `Quick
          (version_rejected 3);
        Alcotest.test_case "previous-version (v4) stream rejected" `Quick
          (version_rejected 4);
        Alcotest.test_case "previous-version (v5) stream rejected" `Quick
          (version_rejected 5);
        Alcotest.test_case "empty input and trailing bytes" `Quick
          empty_and_trailing;
        Alcotest.test_case "save/load roundtrip + missing file" `Quick
          save_load_roundtrip;
        Alcotest.test_case "every constructor keeps its version-6 bytes" `Quick
          constructor_bytes_pinned;
        Alcotest.test_case "restore rebuilds what capture recorded" `Slow
          restore_identity_case;
      ] );
    ( "snapshot-capture",
      [
        Alcotest.test_case
          "a capture from a VM-exit handler is refused, armed or not" `Quick
          capture_in_exit_handler_refused;
      ] );
    ( "snapshot-warm-start",
      [ Alcotest.test_case "fleet digest parity" `Slow warm_start_parity ] );
    ( "snapshot-migrate",
      [
        Alcotest.test_case "digest parity + zero panics" `Slow migrate_parity;
        Alcotest.test_case "pre-copy drains the dirty set" `Quick
          migrate_precopy_drains;
      ] );
    ( "snapshot-recovery-log",
      [
        Alcotest.test_case "retention cap + dropped counter" `Quick
          recovery_log_cap;
        Alcotest.test_case "fc.recovery_log_dropped gauge" `Quick
          dropped_gauge_registered;
      ] );
  ]
