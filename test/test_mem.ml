module Phys = Fc_mem.Phys_mem
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

(* Bulk writes against a [write_byte] loop on a twin pool.  Frames 0-3
   are the target, frames 4-7 the copy source; the range starts anywhere
   in frame 0 and is up to three frames long; optionally one target frame
   is dead.  Both pools must end with the same bytes on every live frame
   and the same version on every frame, and the bulk write must raise
   [Invalid_argument] exactly when the loop does. *)
type bulk_case = {
  op : [ `Fill | `Blit | `Copy ];
  off : int;
  len : int;
  src_off : int;
  pattern : int list;
  seed : int;
  dead : int option;
}

let gen_bulk_case =
  let open QCheck.Gen in
  let page = Phys.page_size in
  map
    (fun ((op, off, len), (src_off, pattern, seed), dead) ->
      { op; off; len; src_off; pattern; seed; dead })
    (triple
       (triple (oneofl [ `Fill; `Blit; `Copy ]) (int_bound (page - 1))
          (int_bound (3 * page)))
       (triple (int_bound (page - 1))
          (list_size (int_range 1 4) (int_bound 255))
          nat)
       (opt (int_bound 3)))

let print_bulk_case c =
  Printf.sprintf "{op=%s; off=%d; len=%d; src_off=%d; pattern=[%s]; seed=%d; dead=%s}"
    (match c.op with `Fill -> "fill" | `Blit -> "blit_bytes" | `Copy -> "copy")
    c.off c.len c.src_off
    (String.concat ";" (List.map string_of_int c.pattern))
    c.seed
    (match c.dead with Some f -> string_of_int f | None -> "none")

let prop_fill_tiles =
  QCheck.Test.make
    ~name:"fill tiles the pattern with stable phase; bulk writes equal a byte loop"
    ~count:200
    (QCheck.make gen_bulk_case ~print:print_bulk_case)
    (fun c ->
      let rng = Random.State.make [| c.seed |] in
      let random_bytes n =
        Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))
      in
      let init = random_bytes (4 * Phys.page_size) in
      let src = random_bytes c.len in
      let twin () =
        let m = Phys.create () in
        let frames = Phys.alloc_n m 8 in
        assert (frames = [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
        Bytes.iteri
          (fun i ch -> Phys.write_byte m (Phys.addr_of_frame 4 + i) (Char.code ch))
          init;
        Option.iter (Phys.free m) c.dead;
        m
      in
      let bulk = twin () and loop = twin () in
      let dst = Phys.addr_of_frame 0 + c.off in
      let src_addr = Phys.addr_of_frame 4 + c.src_off in
      let p = Array.of_list c.pattern in
      let raised f =
        match f () with () -> false | exception Invalid_argument _ -> true
      in
      let bulk_raised =
        raised (fun () ->
            match c.op with
            | `Fill -> Phys.fill bulk ~addr:dst ~len:c.len ~pattern:c.pattern
            | `Blit -> Phys.blit_bytes bulk ~src ~src_off:0 ~dst ~len:c.len
            | `Copy -> Phys.copy bulk ~src:src_addr ~dst ~len:c.len)
      in
      let loop_raised =
        raised (fun () ->
            for i = 0 to c.len - 1 do
              Phys.write_byte loop (dst + i)
                (match c.op with
                | `Fill -> p.(i mod Array.length p)
                | `Blit -> Bytes.get_uint8 src i
                | `Copy -> Phys.read_byte loop (src_addr + i))
            done)
      in
      let same_frame f =
        Phys.version bulk f = Phys.version loop f
        && Phys.is_live bulk f = Phys.is_live loop f
        && ((not (Phys.is_live bulk f))
           || Bytes.equal (Phys.frame_bytes bulk f) (Phys.frame_bytes loop f))
      in
      let tiled () =
        (* the phase property, stated directly *)
        c.op <> `Fill || bulk_raised
        || List.for_all
             (fun i -> Phys.read_byte bulk (dst + i) = p.(i mod Array.length p))
             (List.init c.len Fun.id)
      in
      bulk_raised = loop_raised
      && List.for_all same_frame [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      && tiled ())

(* A frame's digest is never stale.  Random operation sequences over a
   small pool — every writer, including a word write through
   [frame_bytes] followed by [touch], the bytes-unchanged [bump] and
   [set_digest] given the true MD5 — and after every step each live
   frame's [digest] must equal the MD5 of its bytes.  Operations name a
   live frame by index into the live set (skipped when none is live) and
   stay within one frame. *)
type digest_op =
  | D_alloc
  | D_free of int
  | D_incref of int
  | D_fill of int * int * int * int list (* frame, off, len, pattern *)
  | D_blit of int * int * int (* frame, off, seed *)
  | D_copy of int * int * int (* src frame, dst frame, len *)
  | D_write_byte of int * int * int (* frame, off, value *)
  | D_word_touch of int * int * int (* frame, off, value *)
  | D_bump of int
  | D_set_digest of int

let print_digest_op = function
  | D_alloc -> "alloc"
  | D_free f -> Printf.sprintf "free %d" f
  | D_incref f -> Printf.sprintf "incref %d" f
  | D_fill (f, off, len, p) ->
      Printf.sprintf "fill %d +%d len %d [%s]" f off len
        (String.concat ";" (List.map string_of_int p))
  | D_blit (f, off, seed) -> Printf.sprintf "blit %d +%d seed %d" f off seed
  | D_copy (s, d, len) -> Printf.sprintf "copy %d -> %d len %d" s d len
  | D_write_byte (f, off, v) -> Printf.sprintf "write_byte %d +%d %d" f off v
  | D_word_touch (f, off, v) -> Printf.sprintf "word+touch %d +%d %d" f off v
  | D_bump f -> Printf.sprintf "bump %d" f
  | D_set_digest f -> Printf.sprintf "set_digest %d" f

let gen_digest_op =
  let open QCheck.Gen in
  let page = Phys.page_size in
  let frame = int_bound 7 and off = int_bound (page - 1) in
  frequency
    [
      (3, return D_alloc);
      (1, map (fun f -> D_free f) frame);
      (1, map (fun f -> D_incref f) frame);
      ( 2,
        map
          (fun ((f, o, len), p) -> D_fill (f, o, len, p))
          (pair (triple frame off (int_bound page))
             (list_size (int_range 1 3) (int_bound 255))) );
      (2, map (fun (f, o, seed) -> D_blit (f, o, seed)) (triple frame off nat));
      (2, map (fun (s, d, len) -> D_copy (s, d, len)) (triple frame frame (int_bound page)));
      (2, map (fun (f, o, v) -> D_write_byte (f, o, v)) (triple frame off (int_bound 255)));
      ( 3,
        map
          (fun (f, o, v) -> D_word_touch (f, o, v))
          (triple frame (int_bound (page - 4)) (int_bound 0xffff)) );
      (2, map (fun f -> D_bump f) frame);
      (2, map (fun f -> D_set_digest f) frame);
    ]

let prop_digest_never_stale =
  QCheck.Test.make ~name:"a frame's digest is never stale" ~count:300
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map print_digest_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_digest_op))
    (fun ops ->
      let m = Phys.create () in
      let live () =
        List.filter (Phys.is_live m) (List.init (Phys.frame_count m) Fun.id)
      in
      let pick i k =
        match live () with [] -> () | l -> k (List.nth l (i mod List.length l))
      in
      let addr f off = Phys.addr_of_frame f + off in
      let within off len = min len (Phys.page_size - off) in
      let step = function
        | D_alloc -> ignore (Phys.alloc m : int)
        | D_free i -> pick i (Phys.free m)
        | D_incref i -> pick i (Phys.incref m)
        | D_fill (i, off, len, pattern) ->
            pick i (fun f ->
                Phys.fill m ~addr:(addr f off) ~len:(within off len) ~pattern)
        | D_blit (i, off, seed) ->
            pick i (fun f ->
                let rng = Random.State.make [| seed |] in
                let len = within off (1 + Random.State.int rng 64) in
                let src = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
                Phys.blit_bytes m ~src ~src_off:0 ~dst:(addr f off) ~len)
        | D_copy (i, j, len) ->
            pick i (fun src ->
                pick j (fun dst ->
                    if src <> dst then
                      Phys.copy m ~src:(addr src 0) ~dst:(addr dst 0) ~len))
        | D_write_byte (i, off, v) -> pick i (fun f -> Phys.write_byte m (addr f off) v)
        | D_word_touch (i, off, v) ->
            pick i (fun f ->
                Bytes.set_uint16_le (Phys.frame_bytes m f) off v;
                Phys.touch m f)
        | D_bump i -> pick i (Phys.bump m)
        | D_set_digest i ->
            pick i (fun f -> Phys.set_digest m f (Digest.bytes (Phys.frame_bytes m f)))
      in
      List.for_all
        (fun op ->
          step op;
          List.for_all
            (fun f -> Phys.digest m f = Digest.bytes (Phys.frame_bytes m f))
            (live ()))
        ops)

(* A reclaimed pool's live buffers go to its store, and the next pool
   over the store takes them, zero-filled; the reclaimed pool's frames
   are dead and it never touches the store again. *)
let test_spare_reuse () =
  let spare = Phys.spare () in
  let a = Phys.create ~spare () in
  let f = Phys.alloc a and freed = Phys.alloc a in
  Phys.fill a ~addr:(Phys.addr_of_frame f) ~len:Phys.page_size ~pattern:[ 0xcc ];
  Phys.free a freed;
  let old = Phys.frame_bytes a f in
  Phys.reclaim a;
  check_int "only the live frame went to the store" 1 (Phys.spare_frames spare);
  check_bool "the reclaimed frame is dead" false (Phys.is_live a f);
  let b = Phys.create ~spare () in
  let g = Phys.alloc b in
  check_bool "the store's buffer was taken" true (Phys.frame_bytes b g == old);
  check_bool "zero-filled" true
    (Bytes.for_all (Char.equal '\x00') (Phys.frame_bytes b g));
  Phys.reclaim b;
  let (_ : int) = Phys.alloc a in
  check_int "a reclaimed pool takes nothing" 1 (Phys.spare_frames spare)

(* Frozen frames carry the digests the pool knew, without hashing, and
   [import] records them; it refuses a frame that is not one page. *)
let test_frozen_digests () =
  let m = Phys.create () in
  let known = Phys.alloc m and unknown = Phys.alloc m in
  Phys.write_byte m (Phys.addr_of_frame known) 7;
  Phys.write_byte m (Phys.addr_of_frame unknown) 9;
  let d = Phys.digest m known in
  let z = Phys.export m in
  check_int "export hashes nothing" 1 (Phys.digests_computed m);
  let carried f =
    (List.find (fun l -> l.Phys.zl_frame = f) z.Phys.z_live).Phys.zl_digest
  in
  check_bool "a known digest is carried" true (carried known = Some d);
  check_bool "an unknown one is not" true (carried unknown = None);
  let r = Phys.create () in
  Phys.import r z;
  check_bool "import records it" true (Phys.digest r known = d);
  check_int "so the restored pool hashes nothing for it" 0 (Phys.digests_computed r);
  let short =
    { z with Phys.z_live = [ { (List.hd z.Phys.z_live) with Phys.zl_bytes = Bytes.create 16 } ] }
  in
  Alcotest.check_raises "a frame not one page long"
    (Invalid_argument "Phys_mem.import: frame contents not one page") (fun () ->
      Phys.import (Phys.create ()) short)

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
        QCheck_alcotest.to_alcotest prop_digest_never_stale;
        tc "reclaimed buffers are reused zero-filled" test_spare_reuse;
        tc "frozen frames carry their digests" test_frozen_digests;
      ] );
    ( "mem.frame_cache",
      [
        tc "hit takes a reference" test_frame_cache_hit_increfs;
        tc "lazy invalidation (write, free+recycle)" test_frame_cache_invalidation;
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
