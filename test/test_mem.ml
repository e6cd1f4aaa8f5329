module Phys = Fc_mem.Phys_mem
module Pt = Fc_mem.Page_table
module Ept = Fc_mem.Ept

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Phys_mem                                                            *)
(* ------------------------------------------------------------------ *)

let test_alloc_rw () =
  let m = Phys.create () in
  let f = Phys.alloc m in
  let a = Phys.addr_of_frame f in
  check_int "zeroed" 0 (Phys.read_byte m a);
  Phys.write_byte m (a + 17) 0xab;
  check_int "written" 0xab (Phys.read_byte m (a + 17));
  check_int "masked" 0x01 (Phys.write_byte m a 0x101; Phys.read_byte m a)

let test_free_recycle () =
  let m = Phys.create () in
  let f1 = Phys.alloc m in
  check_int "live" 1 (Phys.live_frames m);
  Phys.free m f1;
  check_int "none live" 0 (Phys.live_frames m);
  let f2 = Phys.alloc m in
  check_int "recycled" f1 f2;
  check_int "recycled frame zeroed" 0 (Phys.read_byte m (Phys.addr_of_frame f2))

let test_free_dead_raises () =
  let m = Phys.create () in
  Alcotest.check_raises "double free"
    (Invalid_argument "Phys_mem.free: frame not live") (fun () ->
      let f = Phys.alloc m in
      Phys.free m f;
      Phys.free m f)

let test_read_dead_raises () =
  let m = Phys.create () in
  match Phys.read_byte m 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure reading unallocated frame"

let test_u32 () =
  let m = Phys.create () in
  let f = Phys.alloc m in
  let a = Phys.addr_of_frame f in
  Phys.write_u32 m a 0xdeadbeef;
  check_int "u32 roundtrip" 0xdeadbeef (Phys.read_u32 m a);
  check_int "little-endian low byte" 0xef (Phys.read_byte m a)

let test_u32_cross_page () =
  let m = Phys.create () in
  let f1 = Phys.alloc m in
  let _f2 = Phys.alloc m in
  let a = Phys.addr_of_frame f1 + Phys.page_size - 2 in
  Phys.write_u32 m a 0x12345678;
  check_int "cross-page u32" 0x12345678 (Phys.read_u32 m a)

let test_fill_pattern_phase () =
  let m = Phys.create () in
  let f = Phys.alloc m in
  let a = Phys.addr_of_frame f in
  Phys.fill m ~addr:(a + 2) ~len:5 ~pattern:[ 0x0f; 0x0b ];
  check_int "p0" 0x0f (Phys.read_byte m (a + 2));
  check_int "p1" 0x0b (Phys.read_byte m (a + 3));
  check_int "p2" 0x0f (Phys.read_byte m (a + 4));
  check_int "p4" 0x0f (Phys.read_byte m (a + 6));
  check_int "untouched" 0 (Phys.read_byte m (a + 7))

let test_copy () =
  let m = Phys.create () in
  let f1 = Phys.alloc m and f2 = Phys.alloc m in
  let a1 = Phys.addr_of_frame f1 and a2 = Phys.addr_of_frame f2 in
  Phys.blit_bytes m ~src:(Bytes.of_string "hello") ~src_off:0 ~dst:a1 ~len:5;
  Phys.copy m ~src:a1 ~dst:(a2 + 100) ~len:5;
  check_int "copied" (Char.code 'h') (Phys.read_byte m (a2 + 100));
  check_int "copied end" (Char.code 'o') (Phys.read_byte m (a2 + 104))

let test_refcounts () =
  let m = Phys.create () in
  let f = Phys.alloc m in
  check_int "starts at 1" 1 (Phys.refcount m f);
  Phys.incref m f;
  Phys.incref m f;
  check_int "incref'd" 3 (Phys.refcount m f);
  Phys.free m f;
  check_bool "still live after one free" true (Phys.is_live m f);
  check_int "decremented" 2 (Phys.refcount m f);
  Phys.free m f;
  Phys.free m f;
  check_bool "last free releases" false (Phys.is_live m f);
  check_int "dead frame refcount 0" 0 (Phys.refcount m f);
  Alcotest.check_raises "incref of dead frame raises"
    (Invalid_argument "Phys_mem.incref: frame not live") (fun () ->
      Phys.incref m f)

(* ------------------------------------------------------------------ *)
(* Frame_cache                                                         *)
(* ------------------------------------------------------------------ *)

module Fc = Fc_mem.Frame_cache

let test_frame_cache_hit_increfs () =
  let m = Phys.create () in
  let c = Fc.create m in
  let f = Phys.alloc m in
  Fc.register c "key" f;
  check_bool "hit" true (Fc.find c "key" = Some f);
  check_int "hit took a reference" 2 (Phys.refcount m f);
  check_int "hits" 1 (Fc.hits c);
  check_bool "miss on unknown key" true (Fc.find c "other" = None);
  check_int "misses" 1 (Fc.misses c);
  check_int "resident" 1 (Fc.resident c)

let test_frame_cache_invalidation () =
  let m = Phys.create () in
  let c = Fc.create m in
  (* a later write invalidates the entry (in-place privatize) *)
  let f1 = Phys.alloc m in
  Fc.register c "a" f1;
  Phys.write_byte m (Phys.addr_of_frame f1) 0x55;
  check_bool "stale after write" true (Fc.find c "a" = None);
  (* freeing and recycling the frame must not resurrect the entry *)
  let f2 = Phys.alloc m in
  Fc.register c "b" f2;
  Phys.free m f2;
  let f3 = Phys.alloc m in
  check_int "frame recycled" f2 f3;
  check_bool "stale after free+recycle" true (Fc.find c "b" = None);
  check_int "nothing resident" 0 (Fc.resident c)

(* ------------------------------------------------------------------ *)
(* Page_table                                                          *)
(* ------------------------------------------------------------------ *)

let test_pt_translate () =
  let pt = Pt.create () in
  Pt.map pt ~gva_page:0x10 ~gpa_page:0x99;
  check_bool "mapped page" true (Pt.translate_page pt 0x10 = Some 0x99);
  check_bool "unmapped" true (Pt.translate_page pt 0x11 = None);
  check_int "offset preserved" ((0x99 * 4096) + 123)
    (Option.get (Pt.translate pt ((0x10 * 4096) + 123)))

let test_pt_unmap () =
  let pt = Pt.create () in
  Pt.map pt ~gva_page:1 ~gpa_page:2;
  Pt.unmap pt ~gva_page:1;
  check_bool "unmapped" true (Pt.translate_page pt 1 = None)

let test_pt_copy_range () =
  let src = Pt.create () and dst = Pt.create () in
  Pt.map src ~gva_page:5 ~gpa_page:50;
  Pt.map src ~gva_page:10 ~gpa_page:100;
  Pt.map src ~gva_page:20 ~gpa_page:200;
  Pt.copy_range ~src ~dst ~lo_page:6 ~hi_page:20;
  check_bool "below excluded" true (Pt.translate_page dst 5 = None);
  check_bool "inside copied" true (Pt.translate_page dst 10 = Some 100);
  check_bool "hi exclusive" true (Pt.translate_page dst 20 = None)

(* ------------------------------------------------------------------ *)
(* Ept                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ept_map_translate () =
  let e = Ept.create () in
  Ept.install_page e ~gpa_page:0x12345 ~hpa_frame:7;
  check_bool "mapped" true (Ept.translate_page e 0x12345 = Some 7);
  check_bool "neighbor unmapped" true (Ept.translate_page e 0x12346 = None);
  check_int "address offset" ((7 * 4096) + 5)
    (Option.get (Ept.translate e ((0x12345 * 4096) + 5)))

let test_ept_dir_decompose () =
  check_int "dir" 3 (Ept.dir_of_page ((3 * 1024) + 17));
  check_int "slot" 17 (Ept.slot_of_page ((3 * 1024) + 17))

let test_ept_dir_swap () =
  (* The FACE-CHANGE primitive: two views of the same guest-physical page
     resolved by swapping a directory entry. *)
  let e = Ept.create () in
  let orig = Ept.table_create () and view = Ept.table_create () in
  Ept.table_set orig ~idx:5 (Some 100);
  Ept.table_set view ~idx:5 (Some 200);
  let page = (9 * 1024) + 5 in
  Ept.install_dir e ~dir:9 (Some orig);
  check_bool "original frame" true (Ept.translate_page e page = Some 100);
  Ept.install_dir e ~dir:9 (Some view);
  check_bool "view frame" true (Ept.translate_page e page = Some 200);
  Ept.install_dir e ~dir:9 (Some orig);
  check_bool "back to original" true (Ept.translate_page e page = Some 100)

let test_ept_table_copy_is_independent () =
  let t = Ept.table_create () in
  Ept.table_set t ~idx:0 (Some 1);
  let c = Ept.table_copy t in
  Ept.table_set c ~idx:0 (Some 2);
  check_bool "original untouched" true (Ept.table_get t ~idx:0 = Some 1);
  check_bool "copy changed" true (Ept.table_get c ~idx:0 = Some 2)

let test_ept_unmap_dir () =
  let e = Ept.create () in
  Ept.install_page e ~gpa_page:0 ~hpa_frame:1;
  Ept.install_dir e ~dir:0 None;
  check_bool "violation after unmap" true (Ept.translate_page e 0 = None)

(* table_set/table_get no longer pre-check the index (callers derive it
   from slot_of_page, provably in range — see ept.mli); an out-of-range
   index still cannot corrupt memory, it trips the array bounds check. *)
let test_ept_bad_slot () =
  let t = Ept.table_create () in
  Alcotest.check_raises "slot range" (Invalid_argument "index out of bounds")
    (fun () -> Ept.table_set t ~idx:1024 (Some 0))

let prop_fill_tiles =
  QCheck.Test.make ~name:"fill tiles the pattern with stable phase" ~count:100
    QCheck.(pair (int_bound 200) (int_bound 2000))
    (fun (off, len) ->
      let m = Phys.create () in
      let f = Phys.alloc m in
      let _ = Phys.alloc m in
      let a = Phys.addr_of_frame f + off in
      Phys.fill m ~addr:a ~len ~pattern:[ 0x0f; 0x0b ];
      let ok = ref true in
      for i = 0 to len - 1 do
        let want = if i mod 2 = 0 then 0x0f else 0x0b in
        if Phys.read_byte m (a + i) <> want then ok := false
      done;
      !ok)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "mem.phys",
      [
        tc "alloc and rw" test_alloc_rw;
        tc "free recycles and zeroes" test_free_recycle;
        tc "double free raises" test_free_dead_raises;
        tc "read of dead frame raises" test_read_dead_raises;
        tc "u32 little-endian" test_u32;
        tc "u32 across page boundary" test_u32_cross_page;
        tc "fill pattern phase" test_fill_pattern_phase;
        tc "blit and copy" test_copy;
        tc "refcounted sharing" test_refcounts;
        QCheck_alcotest.to_alcotest prop_fill_tiles;
      ] );
    ( "mem.frame_cache",
      [
        tc "hit takes a reference" test_frame_cache_hit_increfs;
        tc "lazy invalidation (write, free+recycle)" test_frame_cache_invalidation;
      ] );
    ( "mem.page_table",
      [
        tc "map/translate" test_pt_translate;
        tc "unmap" test_pt_unmap;
        tc "copy_range bounds" test_pt_copy_range;
      ] );
    ( "mem.ept",
      [
        tc "map/translate" test_ept_map_translate;
        tc "dir/slot decomposition" test_ept_dir_decompose;
        tc "directory-entry swap switches views" test_ept_dir_swap;
        tc "table_copy independence" test_ept_table_copy_is_independent;
        tc "unmapped dir is a violation" test_ept_unmap_dir;
        tc "slot bounds checked" test_ept_bad_slot;
      ] );
  ]
