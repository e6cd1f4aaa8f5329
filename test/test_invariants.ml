(* Property-based tests of the system's core invariants: view
   materialization, recovery idempotence, assembler well-formedness, and
   a workload fuzzer that throws random syscall scripts at an enforced
   guest. *)

module Action = Fc_machine.Action
module Process = Fc_machine.Process
module Os = Fc_machine.Os
module Image = Fc_kernel.Image
module Layout = Fc_kernel.Layout
module Hyp = Fc_hypervisor.Hypervisor
module View = Fc_core.View
module View_config = Fc_profiler.View_config
module Facechange = Fc_core.Facechange
module Range_list = Fc_ranges.Range_list
module Segment = Fc_ranges.Segment
module Asm = Fc_isa.Asm
module Insn = Fc_isa.Insn
module Scan = Fc_isa.Scan

let image = lazy (Image.build_exn ())

(* ------------------------------------------------------------------ *)
(* Assembler properties                                                *)
(* ------------------------------------------------------------------ *)

let gen_func_specs =
  let open QCheck.Gen in
  let gen_item callees =
    frequency
      [
        (3, map (fun n -> Asm.Fill (n + 1)) (int_bound 60));
        ( 2,
          if callees = [] then map (fun n -> Asm.Fill (n + 1)) (int_bound 10)
          else map (fun i -> Asm.Call (List.nth callees (i mod List.length callees)))
            (int_bound 100) );
        (1, map (fun id -> Asm.Block_point (id land 0xff)) (int_bound 30));
      ]
  in
  (* functions may only call later functions: acyclic by construction *)
  let gen_spec idx total =
    let callees = List.init (total - idx - 1) (fun k -> Printf.sprintf "f%d" (idx + 1 + k)) in
    let* items = list_size (int_bound 6) (gen_item callees) in
    let* min_size = int_range 16 400 in
    return { Asm.fname = Printf.sprintf "f%d" idx; items; min_size }
  in
  let* n = int_range 1 12 in
  let rec build i acc =
    if i >= n then return (List.rev acc)
    else
      let* s = gen_spec i n in
      build (i + 1) (s :: acc)
  in
  build 0 []

let arb_specs =
  QCheck.make gen_func_specs ~print:(fun specs ->
      String.concat ";" (List.map (fun s -> s.Asm.fname) specs))

let unit_reader (u : Asm.unit_image) a =
  let off = a - u.Asm.base in
  if off >= 0 && off < Bytes.length u.Asm.code then
    Some (Bytes.get_uint8 u.Asm.code off)
  else None

let prop_asm_layout =
  QCheck.Test.make ~name:"assembled functions: aligned, sized, prologue'd, in order"
    ~count:150 arb_specs (fun specs ->
      match Asm.assemble ~base:0x10000 specs with
      | Error _ -> false
      | Ok u ->
          let read = unit_reader u in
          let rec check last = function
            | [] -> true
            | (p : Asm.placed) :: rest ->
                p.Asm.addr mod 16 = 0
                && p.Asm.addr >= last
                && p.Asm.size >= 5
                && Scan.is_prologue_at ~read p.Asm.addr
                && check (p.Asm.addr + p.Asm.size) rest
          in
          check u.Asm.base u.Asm.functions)

let prop_asm_decodable =
  QCheck.Test.make ~name:"every assembled body decodes as straight-line valid code"
    ~count:100 arb_specs (fun specs ->
      match Asm.assemble ~base:0x10000 specs with
      | Error _ -> false
      | Ok u ->
          let read = unit_reader u in
          List.for_all
            (fun (p : Asm.placed) ->
              let rec walk a =
                if a >= p.Asm.addr + p.Asm.size then true
                else
                  match Insn.decode ~read a with
                  | Ok (Insn.Ret, len) -> a + len = p.Asm.addr + p.Asm.size
                  | Ok (_, len) -> walk (a + len)
                  | Error _ -> false
              in
              walk p.Asm.addr)
            u.Asm.functions)

let prop_asm_yields_even =
  QCheck.Test.make ~name:"block points land at even offsets (resume stays on UD2 phase)"
    ~count:100 arb_specs (fun specs ->
      match Asm.assemble ~base:0x10000 specs with
      | Error _ -> false
      | Ok u ->
          let read = unit_reader u in
          List.for_all
            (fun (p : Asm.placed) ->
              let rec walk a =
                if a >= p.Asm.addr + p.Asm.size then true
                else
                  match Insn.decode ~read a with
                  | Ok (Insn.Yield _, len) -> a land 1 = 0 && walk (a + len)
                  | Ok (_, len) -> walk (a + len)
                  | Error _ -> false
              in
              walk p.Asm.addr)
            u.Asm.functions)

(* ------------------------------------------------------------------ *)
(* View materialization invariant                                      *)
(* ------------------------------------------------------------------ *)

(* Pick random base-kernel spans out of the image and check the
   materialized view byte-for-byte: original code inside the
   whole-function expansion of each span, phase-aligned UD2 outside. *)
let gen_config =
  let open QCheck.Gen in
  let img = Lazy.force image in
  let fns = Array.of_list (Image.functions img) in
  let* k = int_range 0 8 in
  let* picks = list_repeat k (int_bound (Array.length fns - 1)) in
  let ranges =
    List.fold_left
      (fun acc i ->
        let p = fns.(i) in
        (* a sub-span inside the function *)
        let lo = p.Asm.addr + (i mod max 1 (p.Asm.size / 2)) in
        Range_list.add_range acc Segment.Base_kernel ~lo ~hi:(lo + 4))
      Range_list.empty picks
  in
  return (View_config.make ~app:"prop" ranges)

let arb_config =
  QCheck.make gen_config ~print:(fun c -> View_config.to_string c)

let expanded_functions img (cfg : View_config.t) =
  (* ground truth for the whole-function expansion, via the image's own
     function table (the view must agree while using only byte scans) *)
  List.filter
    (fun (p : Asm.placed) ->
      List.exists
        (fun (seg, (s : Fc_ranges.Span.t)) ->
          seg = Segment.Base_kernel
          && s.Fc_ranges.Span.lo < p.Asm.addr + p.Asm.size
          && p.Asm.addr < s.Fc_ranges.Span.hi)
        (Range_list.to_list cfg.View_config.ranges))
    (Image.functions img)

let prop_view_contents =
  QCheck.Test.make ~name:"view = original inside expanded functions, UD2 outside"
    ~count:25 arb_config (fun cfg ->
      let img = Lazy.force image in
      let os = Os.create img in
      let hyp = Hyp.attach os in
      let v = View.build ~hyp cfg in
      let loaded = expanded_functions img cfg in
      let in_loaded a =
        List.exists
          (fun (p : Asm.placed) ->
            (* a whole-function load runs to the next prologue, i.e. may
               include the padding after the function *)
            p.Asm.addr <= a
            && a < (p.Asm.addr + p.Asm.size + 15) / 16 * 16)
          loaded
      in
      let ok = ref true in
      let a = ref (Image.text_base img) in
      while !ok && !a < Image.text_end img do
        let got = Option.get (View.read_code v ~gva:!a) in
        (if in_loaded !a then begin
           if got <> Option.get (Image.read_byte img !a) then ok := false
         end
         else
           let want = if !a land 1 = 0 then 0x0f else 0x0b in
           if got <> want then ok := false);
        incr a
      done;
      View.destroy v;
      !ok)

let prop_view_destroy_frees =
  QCheck.Test.make ~name:"view destroy frees exactly its frames" ~count:20
    arb_config (fun cfg ->
      let os = Os.create (Lazy.force image) in
      let hyp = Hyp.attach os in
      let before = Fc_mem.Phys_mem.live_frames (Os.phys os) in
      let v = View.build ~hyp cfg in
      View.destroy v;
      Fc_mem.Phys_mem.live_frames (Os.phys os) = before)

(* ------------------------------------------------------------------ *)
(* Workload fuzzing under enforcement                                  *)
(* ------------------------------------------------------------------ *)

let harmless_variants =
  (* every variant except exit (scripts manage their own exit) *)
  List.filter (fun v -> v <> "exit") Fc_kernel.Syscalls.names

let gen_script =
  let open QCheck.Gen in
  let variants = Array.of_list harmless_variants in
  let* n = int_range 1 25 in
  let* picks = list_repeat n (int_bound (Array.length variants - 1)) in
  return (List.map (fun i -> Action.Syscall variants.(i)) picks @ [ Action.Exit ])

let arb_script =
  QCheck.make gen_script ~print:(fun acts ->
      String.concat ";" (List.map (Format.asprintf "%a" Action.pp) acts))

(* A fixed small profile so the fuzzer exercises recovery heavily. *)
let fuzz_profile =
  lazy
    (Fc_profiler.Profiler.profile_app (Lazy.force image) ~name:"fuzz"
       [ Action.Syscall "getpid"; Action.Syscall "write:tty"; Action.Exit ])

let prop_fuzz_never_panics =
  QCheck.Test.make
    ~name:"random syscall workloads under enforcement: silent recovery, no panic"
    ~count:40 arb_script (fun script ->
      let os = Os.create ~config:Os.runtime_config (Lazy.force image) in
      let hyp = Hyp.attach os in
      let fc = Facechange.enable hyp in
      let (_ : int) = Facechange.load_view fc (Lazy.force fuzz_profile) in
      let p = Os.spawn os ~name:"fuzz" script in
      match Os.run ~max_rounds:10_000 os with
      | () -> Process.is_exited p
      | exception Os.Guest_panic _ -> false)

let prop_fuzz_spans_balanced =
  QCheck.Test.make
    ~name:
      "random workloads under an armed trace: span stream balanced, timeline parses"
    ~count:20 arb_script (fun script ->
      let module Trace = Fc_obs.Trace in
      let module Event = Fc_obs.Event in
      let module Jsonx = Fc_obs.Jsonx in
      let os = Os.create ~config:Os.runtime_config (Lazy.force image) in
      Trace.arm ~capacity:65536 (Fc_obs.Obs.trace (Os.obs os));
      let hyp = Hyp.attach os in
      let fc = Facechange.enable hyp in
      let (_ : int) = Facechange.load_view fc (Lazy.force fuzz_profile) in
      let (_ : Process.t) = Os.spawn os ~name:"fuzz" script in
      (match Os.run ~max_rounds:10_000 os with
      | () -> ()
      | exception Os.Guest_panic _ -> ());
      (* every end closes the innermost open begin on its vCPU, and the
         run leaves nothing open *)
      let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4 in
      let sid_vid : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let balanced = ref true in
      List.iter
        (fun (r : Trace.record) ->
          match r.Trace.event with
          | Event.Span_begin { sid; vid; _ } ->
              Hashtbl.replace sid_vid sid vid;
              Hashtbl.replace stacks vid
                (sid :: Option.value ~default:[] (Hashtbl.find_opt stacks vid))
          | Event.Span_end { sid; _ } -> (
              match Hashtbl.find_opt sid_vid sid with
              | None -> balanced := false
              | Some vid -> (
                  Hashtbl.remove sid_vid sid;
                  match Hashtbl.find_opt stacks vid with
                  | Some (top :: rest) when top = sid ->
                      Hashtbl.replace stacks vid rest
                  | _ -> balanced := false))
          | _ -> ())
        (Trace.records (Fc_obs.Obs.trace (Os.obs os)));
      Hashtbl.iter (fun _ st -> if st <> [] then balanced := false) stacks;
      let timeline_ok =
        Result.is_ok
          (Jsonx.of_string
             (Jsonx.to_string
                (Fc_obs.Export.timeline_to_json
                   (Fc_obs.Obs.trace (Os.obs os)))))
      in
      !balanced && timeline_ok)

let prop_fuzz_recovery_restores_original =
  QCheck.Test.make
    ~name:"after any fuzzed run, active view bytes match original wherever not UD2"
    ~count:15 arb_script (fun script ->
      let img = Lazy.force image in
      let os = Os.create ~config:Os.runtime_config img in
      let hyp = Hyp.attach os in
      let fc = Facechange.enable hyp in
      let idx = Facechange.load_view fc (Lazy.force fuzz_profile) in
      let p = Os.spawn os ~name:"fuzz" script in
      Os.run ~max_rounds:10_000 os;
      ignore (Process.is_exited p);
      let v = Option.get (Facechange.find_view fc idx) in
      (* sample a stride of addresses *)
      let ok = ref true in
      let a = ref (Image.text_base img) in
      while !ok && !a < Image.text_end img do
        (match View.read_code v ~gva:!a with
        | Some b0 ->
            (* every byte is either the UD2 fill byte for its parity or a
               faithful copy of the original code *)
            let fill_byte = if !a land 1 = 0 then 0x0f else 0x0b in
            if b0 <> fill_byte && Some b0 <> Image.read_byte img !a then
              ok := false
        | None -> ok := false);
        a := !a + 237
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Config/profile determinism and persistence                           *)
(* ------------------------------------------------------------------ *)

let prop_view_config_roundtrip =
  QCheck.Test.make ~name:"view-config text roundtrip for random range lists"
    ~count:100 arb_config (fun cfg ->
      match View_config.of_string (View_config.to_string cfg) with
      | Ok cfg' ->
          Range_list.equal cfg.View_config.ranges cfg'.View_config.ranges
          && cfg.View_config.app = cfg'.View_config.app
      | Error _ -> false)

(* Totality of the view-config parser: any text gives [Ok] or an
   [Error] naming the line, never an exception, and what it accepts
   round-trips.  Inputs are lines over the format's own vocabulary
   (segments, hex and odd integer literals, comments, stray blanks) and
   [to_string] outputs with bytes overwritten and tails cut. *)
let gen_config_text =
  let open QCheck.Gen in
  let word =
    frequency
      [
        ( 4,
          oneofl
            [
              "app"; "base"; "module:"; "module:ext4"; "module"; "#"; "0x"; "0x10";
              "0x40"; "-0x4"; "0x7fffffffffffffff"; "0xffffffffffffffff";
              "99999999999999999999"; "0b101"; "1_0"; "0o7"; ""; "\t";
            ] );
        (1, string_size ~gen:char (int_bound 6));
      ]
  in
  let line = map (String.concat " ") (list_size (int_bound 4) word) in
  map (String.concat "\n") (list_size (int_bound 8) line)

let gen_mutated_config =
  let open QCheck.Gen in
  let* cfg = gen_config in
  let text = View_config.to_string cfg in
  let n = String.length text in
  let* edits = list_size (int_range 1 6) (pair (int_bound (n - 1)) char) in
  let* cut = frequency [ (2, return n); (1, int_bound n) ] in
  let b = Bytes.of_string text in
  List.iter (fun (i, c) -> Bytes.set b i c) edits;
  return (Bytes.sub_string b 0 cut)

let prop_view_config_total =
  QCheck.Test.make
    ~name:"view-config parser is total on random and byte-mutated text"
    ~count:1000
    (QCheck.make ~print:String.escaped
       (QCheck.Gen.oneof [ gen_config_text; gen_mutated_config ]))
    (fun text ->
      match View_config.of_string text with
      | Error _ -> true
      | Ok cfg -> (
          match View_config.of_string (View_config.to_string cfg) with
          | Ok cfg' -> Range_list.equal cfg.View_config.ranges cfg'.View_config.ranges
          | Error _ -> false))

(* The profiler's recording rule applied one instruction at a time
   through [Os.set_trace], the reference the coverage-hook recorder must
   match: a kernel-space instruction, in interrupt context or in the
   target's context, extends that context's open run when it starts
   where the run ends, and otherwise closes it and opens another.  Runs
   become ranges one [add_range] at a time, module addresses relative to
   the base. *)
type open_run = { mutable lo : int; mutable hi : int }

let profile_per_instruction img ~name script =
  let os = Os.create ~config:Os.profiling_config img in
  let p = Os.spawn os ~name script in
  let mods = Os.vmi_module_list os in
  let runs = ref [] in
  let close r = if r.lo >= 0 then runs := (r.lo, r.hi) :: !runs in
  let step r a len =
    if a = r.hi && r.lo >= 0 then r.hi <- a + len
    else begin
      close r;
      r.lo <- a;
      r.hi <- a + len
    end
  in
  let app = { lo = -1; hi = -1 } and irq = { lo = -1; hi = -1 } in
  Os.set_trace os
    (Some
       (fun a len ->
         if Layout.is_kernel_address a then
           if Os.in_interrupt os then step irq a len
           else if (Os.current os).Process.pid = p.Process.pid then
             step app a len));
  Os.run os;
  Os.set_trace os None;
  close app;
  close irq;
  List.fold_left
    (fun acc (lo, hi) ->
      if Layout.is_module_address lo then
        match
          List.find_opt (fun (_, base, size) -> base <= lo && lo < base + size) mods
        with
        | Some (m, base, _) ->
            Range_list.add_range acc (Segment.Kernel_module m) ~lo:(lo - base)
              ~hi:(hi - base)
        | None -> acc
      else Range_list.add_range acc Segment.Base_kernel ~lo ~hi)
    Range_list.empty !runs

let prop_profiling_deterministic =
  QCheck.Test.make
    ~name:
      "profiling the same workload on either engine, or one instruction at \
       a time, yields identical views"
    ~count:8 arb_script (fun script ->
      let img = Lazy.force image in
      let fast = Fc_profiler.Profiler.profile_app img ~name:"d" script in
      let reference =
        let os = Os.create ~config:Os.profiling_config ~engine:Os.Reference img in
        let p = Os.spawn os ~name:"d" script in
        let s = Fc_profiler.Profiler.start os ~target_pid:p.Process.pid in
        Os.run os;
        Fc_profiler.Profiler.stop s;
        Fc_profiler.Profiler.view_ranges s
      in
      let per_instruction = profile_per_instruction img ~name:"d" script in
      Range_list.equal fast.View_config.ranges reference
      && Range_list.equal reference per_instruction)

let suites =
  [
    ( "invariants",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_asm_layout;
          prop_asm_decodable;
          prop_asm_yields_even;
          prop_view_contents;
          prop_view_destroy_frees;
          prop_fuzz_never_panics;
          prop_fuzz_spans_balanced;
          prop_fuzz_recovery_restores_original;
          prop_view_config_roundtrip;
          prop_profiling_deterministic;
          prop_view_config_total;
        ] );
  ]
