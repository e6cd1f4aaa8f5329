module Catalog = Fc_kernel.Catalog
module Kfunc = Fc_kernel.Kfunc
module Image = Fc_kernel.Image
module Layout = Fc_kernel.Layout
module Syscalls = Fc_kernel.Syscalls
module Irq_paths = Fc_kernel.Irq_paths
module Symbols = Fc_kernel.Symbols
module Asm = Fc_isa.Asm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let image = lazy (Image.build_exn ())

(* ------------------------------------------------------------------ *)
(* Catalog consistency                                                 *)
(* ------------------------------------------------------------------ *)

let test_no_duplicate_names () =
  let seen = Hashtbl.create 512 in
  List.iter
    (fun (fn : Kfunc.t) ->
      if Hashtbl.mem seen fn.name then Alcotest.failf "duplicate %s" fn.name;
      Hashtbl.add seen fn.name ())
    Catalog.all_functions

let test_all_callees_exist () =
  List.iter
    (fun (fn : Kfunc.t) ->
      List.iter
        (fun callee ->
          if Catalog.find callee = None then
            Alcotest.failf "%s calls unknown %s" fn.name callee)
        (Kfunc.callees fn))
    Catalog.all_functions

let test_callgraph_acyclic () =
  (* DFS with colors over direct calls; indirect dispatch is excluded by
     construction (a D site cannot recurse into its own path because the
     dispatch queues in Syscalls/Irq_paths are finite). *)
  let color = Hashtbl.create 512 in
  let rec visit name =
    match Hashtbl.find_opt color name with
    | Some `Done -> ()
    | Some `Active -> Alcotest.failf "call cycle through %s" name
    | None -> (
        Hashtbl.replace color name `Active;
        (match Catalog.find name with
        | Some fn -> List.iter visit (Kfunc.callees fn)
        | None -> ());
        Hashtbl.replace color name `Done)
  in
  List.iter (fun (fn : Kfunc.t) -> visit fn.name) Catalog.all_functions

let test_module_calls_stay_resolvable () =
  (* Module functions may call base functions or functions within the same
     module, never functions of another module. *)
  let base_names = Hashtbl.create 512 in
  List.iter
    (fun (fn : Kfunc.t) -> Hashtbl.add base_names fn.name ())
    Catalog.base_functions;
  List.iter
    (fun (mname, fns) ->
      let local = Hashtbl.create 64 in
      List.iter (fun (fn : Kfunc.t) -> Hashtbl.add local fn.name ()) fns;
      List.iter
        (fun (fn : Kfunc.t) ->
          List.iter
            (fun callee ->
              if not (Hashtbl.mem base_names callee || Hashtbl.mem local callee)
              then Alcotest.failf "module %s: %s calls foreign %s" mname fn.name callee)
            (Kfunc.callees fn))
        fns)
    Catalog.module_functions

let test_paper_named_functions_present () =
  (* Functions named in the paper's figures must exist. *)
  List.iter
    (fun n ->
      if Catalog.find n = None then Alcotest.failf "missing paper function %s" n)
    [
      "sys_poll"; "do_sys_poll"; "do_poll"; "pipe_poll"; "syscall_call";
      "inet_create"; "sys_bind"; "security_socket_bind"; "apparmor_socket_bind";
      "inet_bind"; "inet_addr_type"; "lock_sock_nested"; "udp_v4_get_port";
      "udp_lib_get_port"; "udp_lib_lport_inuse"; "release_sock";
      "sys_recvfrom"; "sock_recvmsg"; "security_socket_recvmsg";
      "apparmor_socket_recvmsg"; "sock_common_recvmsg"; "udp_recvmsg";
      "__skb_recv_datagram"; "prepare_to_wait_exclusive";
      "strnlen"; "vsnprintf"; "snprintf"; "filp_open";
      "__jbd2_log_start_commit"; "__ext4_journal_stop"; "ext4_dirty_inode";
      "__mark_inode_dirty"; "file_update_time"; "__generic_file_aio_write";
      "generic_file_aio_write"; "ext4_file_write"; "do_sync_write";
      "kvm_clock_get_cycles"; "kvm_clock_read"; "pvclock_clocksource_read";
      "native_read_tsc"; "sys_fork"; "sys_clone"; "sys_setitimer";
      "__switch_to"; "resume_userspace";
    ]

let test_tree_shape () =
  let fns = Catalog.tree ~sub:"x" ~prefix:"t" ~n:7 ~size:100 in
  check_int "count" 7 (List.length fns);
  (* root reaches all: walk *)
  let by_name = Hashtbl.create 8 in
  List.iter (fun (fn : Kfunc.t) -> Hashtbl.replace by_name fn.name fn) fns;
  let visited = Hashtbl.create 8 in
  let rec walk n =
    if not (Hashtbl.mem visited n) then begin
      Hashtbl.add visited n ();
      List.iter walk (Kfunc.callees (Hashtbl.find by_name n))
    end
  in
  walk "t_000";
  check_int "all reached" 7 (Hashtbl.length visited)

(* ------------------------------------------------------------------ *)
(* Image                                                               *)
(* ------------------------------------------------------------------ *)

let test_image_builds () =
  let img = Lazy.force image in
  check_bool "nonempty" true (Image.text_end img > Image.text_base img);
  check_bool "fits region" true (Image.text_end img <= Layout.text_limit);
  check_int "function count"
    (List.length Catalog.base_functions)
    (List.length (Image.functions img))

let test_image_no_false_prologues () =
  let img = Lazy.force image in
  match Image.false_prologues img with
  | [] -> ()
  | l -> Alcotest.failf "%d false prologues, first at 0x%x" (List.length l) (List.hd l)

let test_image_lookup () =
  let img = Lazy.force image in
  let a = Image.addr_of_exn img "sys_poll" in
  check_int "aligned" 0 (a mod 16);
  let syms = Symbols.create img in
  check_bool "containing" true (Symbols.find syms (a + 5) = Some ("sys_poll", 5));
  check_bool "unknown" true (Image.addr_of img "nosuch" = None);
  check_bool "gap address" true (Symbols.find syms (Image.text_base img - 1) = None)

let test_fig3_parity_layout () =
  (* sys_poll's call to do_sys_poll returns to an odd address; do_sys_poll's
     call to do_poll returns to an even address (Fig. 3). *)
  let img = Lazy.force image in
  let read a = Image.read_byte img a in
  let ret_addr_of_call_to caller target =
    let p =
      List.find (fun (p : Asm.placed) -> p.Asm.pname = caller) (Image.functions img)
    in
    let target_addr = Image.addr_of_exn img target in
    let rec go a =
      if a >= p.Asm.addr + p.Asm.size then Alcotest.failf "no call in %s" caller
      else
        match Fc_isa.Insn.decode ~read a with
        | Ok (Fc_isa.Insn.Call_rel d, len) when a + len + d = target_addr -> a + len
        | Ok (_, len) -> go (a + len)
        | Error _ -> Alcotest.failf "decode error in %s" caller
    in
    go p.Asm.addr
  in
  check_int "sys_poll ret odd" 1 (ret_addr_of_call_to "sys_poll" "do_sys_poll" land 1);
  check_int "do_sys_poll ret even" 0 (ret_addr_of_call_to "do_sys_poll" "do_poll" land 1)

let test_module_assembly () =
  let img = Lazy.force image in
  match Image.assemble_module img ~name:"kvmclock" ~base:Layout.module_area_base with
  | Error e -> Alcotest.fail e
  | Ok u ->
      check_int "base" Layout.module_area_base u.Asm.base;
      check_bool "has kvm_clock_read" true (Asm.find_function u "kvm_clock_read" <> None);
      (* cross-unit call resolves into base kernel *)
      let kcr = Option.get (Asm.find_function u "kvm_clock_read") in
      let read a =
        let off = a - u.Asm.base in
        if off >= 0 && off < Bytes.length u.Asm.code then
          Some (Bytes.get_uint8 u.Asm.code off)
        else None
      in
      let rec find_call a =
        match Fc_isa.Insn.decode ~read a with
        | Ok (Fc_isa.Insn.Call_rel d, len) -> a + len + d
        | Ok (_, len) -> find_call (a + len)
        | Error _ -> Alcotest.fail "decode error"
      in
      check_int "calls pvclock in base"
        (Image.addr_of_exn img "pvclock_clocksource_read")
        (find_call kcr.Asm.addr)

let placed (u : Asm.unit_image) =
  List.map (fun (p : Asm.placed) -> (p.Asm.pname, p.Asm.addr, p.Asm.size)) u.Asm.functions

let test_module_relocation_identical_structure () =
  let img = Lazy.force image in
  (* no catalog module boots here, so every unit at [other] is assembled
     on demand — and must be exactly what a fresh assembly yields *)
  let other = Layout.module_area_base + 0x20000 in
  List.iter
    (fun (name, fns) ->
      let at base = Result.get_ok (Image.assemble_module img ~name ~base) in
      let u1 = at Layout.module_area_base and u2 = at other in
      let fresh = Result.get_ok (Image.assemble_module_fns img ~base:other fns) in
      check_bool (name ^ ": code of a fresh assembly") true
        (Bytes.equal u2.Asm.code fresh.Asm.code);
      check_bool (name ^ ": symbols of a fresh assembly") true
        (placed u2 = placed fresh);
      List.iter
        (fun (u : Asm.unit_image) ->
          List.iter2
            (fun (p1 : Asm.placed) (p2 : Asm.placed) ->
              check_bool "same name" true (p1.Asm.pname = p2.Asm.pname);
              check_int "same relative offset" (p1.Asm.addr - u1.Asm.base)
                (p2.Asm.addr - u.Asm.base);
              check_int "same size" p1.Asm.size p2.Asm.size)
            u1.Asm.functions u.Asm.functions)
        [ u2; fresh ])
    Catalog.module_functions

(* (name, base, size) of every module in a freshly booted guest's VMI
   module list — the layout guests booted with before the placement rule
   moved into [Image.next_module_base], pinned so that it provably moved
   no module. *)
let boot_module_layout =
  [
    ("kvmclock", 0xf8000000, 208);
    ("af_packet", 0xf8002000, 44944);
    ("snd_hda", 0xf800e000, 26407);
    ("crypto_aes", 0xf8016000, 20119);
  ]

let test_modules_assembled_once () =
  let img = Lazy.force image in
  Alcotest.(check (list string))
    "every catalog module, in load order"
    (List.map fst Catalog.module_functions)
    (List.map fst (Image.boot_modules img));
  List.iter
    (fun (name, (u : Asm.unit_image)) ->
      match Image.assemble_module img ~name ~base:u.Asm.base with
      | Ok u' -> check_bool (name ^ ": the prebuilt unit itself") true (u' == u)
      | Error e -> Alcotest.fail e)
    (Image.boot_modules img);
  let os = Fc_machine.Os.create img in
  Alcotest.(check (list (triple string int int)))
    "boot module layout" boot_module_layout
    (Fc_machine.Os.vmi_module_list os);
  List.iter2
    (fun (m : Fc_machine.Os.module_info) (_, u) ->
      check_bool (m.Fc_machine.Os.mod_name ^ ": guest runs the prebuilt unit")
        true (m.Fc_machine.Os.unit_image == u))
    (Fc_machine.Os.modules os) (Image.boot_modules img)

let test_unknown_module () =
  let img = Lazy.force image in
  match Image.assemble_module img ~name:"nosuch" ~base:Layout.module_area_base with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* ------------------------------------------------------------------ *)
(* Syscalls / Irq_paths                                                *)
(* ------------------------------------------------------------------ *)

let test_syscall_entries_exist () =
  List.iter
    (fun (s : Syscalls.t) ->
      if Catalog.find s.entry = None then
        Alcotest.failf "%s: unknown entry %s" s.sc_name s.entry;
      List.iter
        (fun d ->
          if d <> "@clocksource" && Catalog.find d = None then
            Alcotest.failf "%s: unknown dispatch %s" s.sc_name d)
        s.dispatch)
    Syscalls.all

let test_syscall_find () =
  check_bool "found" true (Syscalls.find "read:ext4" <> None);
  check_bool "missing" true (Syscalls.find "nosuch" = None);
  match Syscalls.find_exn "poll:pipe" with
  | { entry = "sys_poll"; dispatch = [ "pipe_poll" ]; _ } -> ()
  | _ -> Alcotest.fail "unexpected poll:pipe definition"

let test_syscall_names_unique () =
  let seen = Hashtbl.create 128 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then Alcotest.failf "duplicate syscall %s" n;
      Hashtbl.add seen n ())
    Syscalls.names

let test_irq_dispatch_targets_exist () =
  List.iter
    (fun src ->
      List.iter
        (fun d ->
          if Catalog.find d = None then
            Alcotest.failf "%s: unknown dispatch %s" (Irq_paths.describe src) d)
        (Irq_paths.dispatch src))
    (Irq_paths.all_sources
    @ [ Irq_paths.Timer Irq_paths.Kvmclock; Irq_paths.Timer_itimer Irq_paths.Kvmclock ])

let test_kvmclock_only_at_runtime () =
  let prof = Irq_paths.dispatch (Irq_paths.Timer Irq_paths.Acpi_pm) in
  let run = Irq_paths.dispatch (Irq_paths.Timer Irq_paths.Kvmclock) in
  check_bool "profiling avoids kvmclock" false (List.mem "kvm_clock_get_cycles" prof);
  check_bool "runtime uses kvmclock" true (List.mem "kvm_clock_get_cycles" run)

(* ------------------------------------------------------------------ *)
(* Symbols                                                             *)
(* ------------------------------------------------------------------ *)

let test_symbols_render () =
  let img = Lazy.force image in
  let syms = Symbols.create img in
  let a = Image.addr_of_exn img "do_sys_poll" in
  Alcotest.(check string)
    "zero offset"
    (Printf.sprintf "0x%x <do_sys_poll+0x0>" a)
    (Symbols.render syms a);
  Alcotest.(check string)
    "offset"
    (Printf.sprintf "0x%x <do_sys_poll+0x16>" (a + 0x16))
    (Symbols.render syms (a + 0x16));
  Alcotest.(check string)
    "unknown" "0xf8078bbe <UNKNOWN>"
    (Symbols.render syms 0xf8078bbe)

(* The hypervisor hides a module by rebuilding its table without it
   ([Hypervisor.refresh_symbols]); this is that rebuild. *)
let test_symbols_module_add_remove () =
  let img = Lazy.force image in
  let base = Layout.module_area_base in
  let u = Result.get_ok (Image.assemble_module img ~name:"kvmclock" ~base) in
  let a = (Option.get (Asm.find_function u "kvm_clock_read")).Asm.addr in
  let with_module = Symbols.create img in
  Symbols.add_unit with_module u;
  check_bool "module symbol resolves" true
    (Symbols.find with_module (a + 1) = Some ("kvm_clock_read", 1));
  (* Hiding the module (KBeast-style) makes its frames UNKNOWN. *)
  let hidden = Symbols.create img in
  check_bool "hidden module is UNKNOWN" true (Symbols.find hidden a = None);
  List.iter
    (fun syms ->
      check_bool "base still resolves" true
        (Symbols.find syms (Image.addr_of_exn img "sys_poll")
        = Some ("sys_poll", 0)))
    [ with_module; hidden ]

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let test_layout_translation () =
  check_int "text gpa" 0x100000 (Layout.gva_to_gpa Layout.text_base);
  check_int "roundtrip" Layout.text_base (Layout.gpa_to_gva (Layout.gva_to_gpa Layout.text_base));
  check_bool "user addr rejected" true
    (match Layout.gva_to_gpa 0x1000 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "module area is kernel" true (Layout.is_kernel_address Layout.module_area_base);
  check_bool "module area detected" true (Layout.is_module_address Layout.module_area_base);
  check_bool "text not module" false (Layout.is_module_address Layout.text_base)

let test_layout_stacks_disjoint () =
  let top0 = Layout.kstack_top ~pid:0 and top1 = Layout.kstack_top ~pid:1 in
  check_bool "ordered" true (top0 < top1);
  check_bool "disjoint" true (top1 - top0 = Layout.kstack_size)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "kernel.catalog",
      [
        tc "no duplicate function names" test_no_duplicate_names;
        tc "all callees exist" test_all_callees_exist;
        tc "call graph is acyclic" test_callgraph_acyclic;
        tc "module calls stay resolvable" test_module_calls_stay_resolvable;
        tc "paper-named functions present" test_paper_named_functions_present;
        tc "tree generator shape" test_tree_shape;
      ] );
    ( "kernel.image",
      [
        tc "image builds inside the text region" test_image_builds;
        tc "no false prologue signatures" test_image_no_false_prologues;
        tc "symbol and containment lookup" test_image_lookup;
        tc "Fig.3 call-site parity layout" test_fig3_parity_layout;
        tc "module assembly resolves into base" test_module_assembly;
        tc "module relocation keeps relative structure" test_module_relocation_identical_structure;
        tc "catalog modules assembled once, at their boot bases" test_modules_assembled_once;
        tc "unknown module rejected" test_unknown_module;
      ] );
    ( "kernel.syscalls",
      [
        tc "entries and dispatch targets exist" test_syscall_entries_exist;
        tc "find" test_syscall_find;
        tc "names unique" test_syscall_names_unique;
        tc "irq dispatch targets exist" test_irq_dispatch_targets_exist;
        tc "kvmclock absent from profiling clocksource" test_kvmclock_only_at_runtime;
      ] );
    ( "kernel.symbols",
      [
        tc "render known/unknown" test_symbols_render;
        tc "module add/remove (rootkit hiding)" test_symbols_module_add_remove;
      ] );
    ( "kernel.layout",
      [
        tc "gva/gpa translation" test_layout_translation;
        tc "kernel stacks disjoint" test_layout_stacks_disjoint;
      ] );
  ]
