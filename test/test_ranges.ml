open Fc_ranges

let span lo hi = Span.make ~lo ~hi
let base = Segment.Base_kernel
let m name = Segment.Kernel_module name

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Span                                                                *)
(* ------------------------------------------------------------------ *)

let test_span_make_size () =
  check_int "size" 10 (Span.size (span 5 15));
  check_int "empty size" 0 (Span.size (span 7 7));
  check_bool "is_empty" true (Span.is_empty (span 7 7));
  check_bool "non-empty" false (Span.is_empty (span 7 8))

let test_span_make_invalid () =
  Alcotest.check_raises "hi < lo" (Invalid_argument "Span.make: hi < lo")
    (fun () -> ignore (span 10 5));
  Alcotest.check_raises "negative" (Invalid_argument "Span.make: negative lo")
    (fun () -> ignore (span (-1) 5))

let test_span_contains () =
  let s = span 10 20 in
  check_bool "lo in" true (Span.contains s 10);
  check_bool "hi out" false (Span.contains s 20);
  check_bool "mid in" true (Span.contains s 15);
  check_bool "below" false (Span.contains s 9)

let test_span_overlaps () =
  check_bool "overlap" true (Span.overlaps (span 0 10) (span 5 15));
  check_bool "adjacent not overlap" false (Span.overlaps (span 0 10) (span 10 20));
  check_bool "disjoint" false (Span.overlaps (span 0 10) (span 11 20));
  check_bool "empty never overlaps" false (Span.overlaps (span 5 5) (span 0 10));
  check_bool "contained" true (Span.overlaps (span 0 100) (span 40 50))

let test_span_adjacent () =
  check_bool "right" true (Span.adjacent (span 0 10) (span 10 20));
  check_bool "left" true (Span.adjacent (span 10 20) (span 0 10));
  check_bool "gap" false (Span.adjacent (span 0 10) (span 11 20))

let test_span_inter () =
  (match Span.inter (span 0 10) (span 5 15) with
  | Some s -> check_int "inter lo" 5 s.Span.lo; check_int "inter hi" 10 s.Span.hi
  | None -> Alcotest.fail "expected overlap");
  check_bool "disjoint inter" true (Span.inter (span 0 5) (span 6 9) = None);
  check_bool "adjacent inter" true (Span.inter (span 0 5) (span 5 9) = None)

let test_span_merge () =
  let s = Span.merge (span 0 10) (span 10 20) in
  check_int "merge lo" 0 s.Span.lo;
  check_int "merge hi" 20 s.Span.hi;
  Alcotest.check_raises "disjoint merge"
    (Invalid_argument "Span.merge: disjoint spans") (fun () ->
      ignore (Span.merge (span 0 5) (span 7 9)))

let test_span_shift () =
  let s = Span.shift (span 10 20) 100 in
  check_int "shift lo" 110 s.Span.lo;
  check_int "shift hi" 120 s.Span.hi

(* ------------------------------------------------------------------ *)
(* Segment                                                             *)
(* ------------------------------------------------------------------ *)

let test_segment_roundtrip () =
  List.iter
    (fun seg ->
      check_bool "roundtrip" true
        (Segment.equal seg (Segment.of_string (Segment.to_string seg))))
    [ base; m "ext4"; m "kvmclock" ]

let test_segment_of_string_invalid () =
  List.iter
    (fun s ->
      match Segment.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "expected failure on %S" s)
    [ "bogus"; "module:"; "Module:x"; "" ]

let test_segment_order () =
  check_bool "base < module" true (Segment.compare base (m "a") < 0);
  check_bool "modules by name" true (Segment.compare (m "a") (m "b") < 0);
  check_bool "equal" true (Segment.compare (m "a") (m "a") = 0)

(* ------------------------------------------------------------------ *)
(* Range_list                                                          *)
(* ------------------------------------------------------------------ *)

let test_rl_add_merges_adjacent () =
  let t = Range_list.empty in
  let t = Range_list.add_range t base ~lo:0 ~hi:10 in
  let t = Range_list.add_range t base ~lo:10 ~hi:20 in
  check_int "merged len" 1 (Range_list.len t);
  check_int "merged size" 20 (Range_list.size t)

let test_rl_add_merges_overlap () =
  let t = Range_list.of_list [ (base, span 0 10); (base, span 5 25) ] in
  check_int "len" 1 (Range_list.len t);
  check_int "size" 25 (Range_list.size t)

let test_rl_disjoint_spans () =
  let t = Range_list.of_list [ (base, span 0 10); (base, span 20 30) ] in
  check_int "len" 2 (Range_list.len t);
  check_int "size" 20 (Range_list.size t)

let test_rl_bridging_insert () =
  (* A middle insert that bridges two existing spans must collapse all
     three into one. *)
  let t = Range_list.of_list [ (base, span 0 10); (base, span 20 30); (base, span 8 22) ] in
  check_int "len" 1 (Range_list.len t);
  check_int "size" 30 (Range_list.size t)

let test_rl_segments_independent () =
  let t = Range_list.of_list [ (base, span 0 10); (m "ext4", span 0 10) ] in
  check_int "len counts both" 2 (Range_list.len t);
  check_int "size sums both" 20 (Range_list.size t);
  check_int "per-segment" 10 (Range_list.size_of_segment t base);
  check_bool "mem base" true (Range_list.mem t base 5);
  check_bool "mem module" true (Range_list.mem t (m "ext4") 5);
  check_bool "not mem other module" false (Range_list.mem t (m "snd") 5)

let test_rl_empty_span_ignored () =
  let t = Range_list.add Range_list.empty base (span 5 5) in
  check_bool "still empty" true (Range_list.is_empty t)

let test_rl_inter () =
  let a = Range_list.of_list [ (base, span 0 100); (m "x", span 0 50) ] in
  let b = Range_list.of_list [ (base, span 50 150); (m "y", span 0 50) ] in
  let i = Range_list.inter a b in
  check_int "inter size" 50 (Range_list.size i);
  check_bool "module disjoint" false (Range_list.mem i (m "x") 10)

let test_rl_inter_multi_span () =
  let a = Range_list.of_list [ (base, span 0 10); (base, span 20 30); (base, span 40 50) ] in
  let b = Range_list.of_list [ (base, span 5 45) ] in
  let i = Range_list.inter a b in
  check_int "len" 3 (Range_list.len i);
  check_int "size" 20 (Range_list.size i)

let test_rl_diff () =
  let a = Range_list.of_list [ (base, span 0 100) ] in
  let b = Range_list.of_list [ (base, span 20 30); (base, span 50 60) ] in
  let d = Range_list.diff a b in
  check_int "diff size" 80 (Range_list.size d);
  check_int "diff len" 3 (Range_list.len d);
  check_bool "hole" false (Range_list.mem d base 25);
  check_bool "kept" true (Range_list.mem d base 0)

let test_rl_union () =
  let a = Range_list.of_list [ (base, span 0 10) ] in
  let b = Range_list.of_list [ (base, span 5 20); (m "x", span 0 4) ] in
  let u = Range_list.union a b in
  check_int "union size" 24 (Range_list.size u);
  check_int "union len" 2 (Range_list.len u)

let test_rl_subset () =
  let a = Range_list.of_list [ (base, span 5 10) ] in
  let b = Range_list.of_list [ (base, span 0 20) ] in
  check_bool "subset" true (Range_list.subset a b);
  check_bool "not superset" false (Range_list.subset b a)

let test_rl_similarity () =
  (* Equation 1 worked example: |A|=100, |B|=50 fully inside A. *)
  let a = Range_list.of_list [ (base, span 0 100) ] in
  let b = Range_list.of_list [ (base, span 0 50) ] in
  Alcotest.(check (float 1e-9)) "S" 0.5 (Range_list.similarity a b);
  Alcotest.(check (float 1e-9)) "symmetric" 0.5 (Range_list.similarity b a);
  Alcotest.(check (float 1e-9)) "self" 1.0 (Range_list.similarity a a);
  Alcotest.(check (float 1e-9)) "empty" 0.0
    (Range_list.similarity Range_list.empty Range_list.empty)

let test_rl_covered_spans () =
  let t = Range_list.of_list [ (base, span 0 10); (base, span 20 30) ] in
  let parts = Range_list.covered_spans t base (span 5 25) in
  check_int "two parts" 2 (List.length parts);
  check_int "covered bytes" 10
    (List.fold_left (fun n s -> n + Span.size s) 0 parts)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_range_list =
  let open QCheck.Gen in
  let gen_span =
    map2 (fun lo len -> span lo (lo + len)) (int_bound 500) (int_bound 60)
  in
  let gen_seg =
    frequency [ (3, return base); (1, return (m "ext4")); (1, return (m "snd")) ]
  in
  map Range_list.of_list (list_size (int_bound 20) (pair gen_seg gen_span))

let arb_range_list =
  QCheck.make gen_range_list ~print:(fun t -> Format.asprintf "%a" Range_list.pp t)

let prop_normalized =
  QCheck.Test.make ~name:"range lists stay normalized (sorted, disjoint, non-adjacent)"
    ~count:300 arb_range_list (fun t ->
      List.for_all
        (fun seg ->
          let rec ok = function
            | [] | [ _ ] -> true
            | a :: (b :: _ as rest) ->
                (a : Span.t).hi < (b : Span.t).lo && ok rest
          in
          ok (Range_list.spans t seg))
        (Range_list.segments t))

let prop_inter_subset =
  QCheck.Test.make ~name:"inter is a subset of both" ~count:300
    (QCheck.pair arb_range_list arb_range_list) (fun (a, b) ->
      let i = Range_list.inter a b in
      Range_list.subset i a && Range_list.subset i b)

let prop_diff_disjoint =
  QCheck.Test.make ~name:"diff a b is disjoint from b and unions back to a"
    ~count:300
    (QCheck.pair arb_range_list arb_range_list) (fun (a, b) ->
      let d = Range_list.diff a b in
      Range_list.size (Range_list.inter d b) = 0
      && Range_list.equal (Range_list.union d (Range_list.inter a b)) a)

let prop_union_size =
  QCheck.Test.make ~name:"inclusion-exclusion: |a∪b| = |a|+|b|-|a∩b|" ~count:300
    (QCheck.pair arb_range_list arb_range_list) (fun (a, b) ->
      Range_list.size (Range_list.union a b)
      = Range_list.size a + Range_list.size b
        - Range_list.size (Range_list.inter a b))

let prop_similarity_bounds =
  QCheck.Test.make ~name:"similarity in [0,1], 1 iff equal (non-empty)" ~count:300
    (QCheck.pair arb_range_list arb_range_list) (fun (a, b) ->
      let s = Range_list.similarity a b in
      s >= 0. && s <= 1.
      && ((not (Range_list.equal a b)) || Range_list.is_empty a || s = 1.0))

let prop_mem_matches_to_list =
  QCheck.Test.make ~name:"mem agrees with to_list coverage" ~count:200
    (QCheck.pair arb_range_list QCheck.(int_bound 600)) (fun (t, addr) ->
      List.for_all
        (fun seg ->
          Range_list.mem t seg addr
          = List.exists
              (fun (sg, s) -> Segment.equal sg seg && Span.contains s addr)
              (Range_list.to_list t))
        [ base; m "ext4"; m "snd" ])

(* Unsorted span lists built to collide: empty spans, spans on a coarse
   grid (so they touch end to start or overlap), short spans anywhere,
   over three segments. *)
let arb_span_list =
  let open QCheck.Gen in
  let gen_span =
    frequency
      [
        (1, map (fun lo -> span lo lo) (int_bound 100));
        ( 2,
          map2
            (fun k len -> span (k * 10) ((k * 10) + len))
            (int_bound 10) (oneofl [ 5; 10; 20 ]) );
        (3, map2 (fun lo len -> span lo (lo + len)) (int_bound 100) (int_range 1 20));
      ]
  in
  let gen_seg =
    frequency [ (3, return base); (1, return (m "ext4")); (1, return (m "snd")) ]
  in
  QCheck.make
    (list_size (int_bound 40) (pair gen_seg gen_span))
    ~print:(fun l ->
      String.concat "; "
        (List.map (fun (seg, s) -> Segment.to_string seg ^ " " ^ Span.to_string s) l))

let prop_of_list_folds_add =
  QCheck.Test.make ~name:"of_list sorts and merges in one pass as folding add does"
    ~count:500 arb_span_list (fun l ->
      Range_list.equal (Range_list.of_list l)
        (List.fold_left (fun t (seg, s) -> Range_list.add t seg s) Range_list.empty l))

let qsuite = List.map QCheck_alcotest.to_alcotest
  [
    prop_normalized;
    prop_inter_subset;
    prop_diff_disjoint;
    prop_union_size;
    prop_similarity_bounds;
    prop_mem_matches_to_list;
    prop_of_list_folds_add;
  ]

(* ------------------------------------------------------------------ *)
(* Seeded model battery: Range_list vs a naive bitset                  *)
(*                                                                     *)
(* The interval-index representation is checked against the dumbest    *)
(* possible model — one boolean per address per segment — over seeded  *)
(* random workloads, so every run exercises the same cases.            *)
(* ------------------------------------------------------------------ *)

let addr_limit = 640
let model_segs = [ base; m "ext4"; m "snd" ]

let model_create () =
  List.map (fun s -> (s, Array.make addr_limit false)) model_segs

let model_set bits seg ~lo ~hi =
  let a = List.assoc seg bits in
  for i = lo to hi - 1 do
    a.(i) <- true
  done

let model_mem bits seg i = (List.assoc seg bits).(i)

let model_size bits =
  List.fold_left
    (fun n (_, a) ->
      n + Array.fold_left (fun n b -> if b then n + 1 else n) 0 a)
    0 bits

(* maximal runs of set bits = normalized span count *)
let model_len bits =
  List.fold_left
    (fun n (_, a) ->
      let runs = ref 0 in
      Array.iteri (fun i b -> if b && (i = 0 || not a.(i - 1)) then incr runs) a;
      n + !runs)
    0 bits

let model_equal ba bb =
  List.for_all2 (fun (_, a) (_, b) -> a = b) ba bb

(* one random range list built by random inserts, plus its model *)
let gen_model_pair rng =
  let nspans = 1 + Random.State.int rng 24 in
  let t = ref Range_list.empty in
  let bits = model_create () in
  for _ = 1 to nspans do
    let seg = List.nth model_segs (Random.State.int rng (List.length model_segs)) in
    let lo = Random.State.int rng (addr_limit - 80) in
    let hi = lo + Random.State.int rng 80 in
    t := Range_list.add_range !t seg ~lo ~hi;
    model_set bits seg ~lo ~hi
  done;
  (!t, bits)

let check_matches_model msg t bits =
  List.iter
    (fun seg ->
      for i = 0 to addr_limit - 1 do
        if Range_list.mem t seg i <> model_mem bits seg i then
          Alcotest.failf "%s: mem mismatch at %s/%d" msg (Segment.to_string seg) i
      done)
    model_segs

let check_normalized msg t =
  List.iter
    (fun seg ->
      let rec ok = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> (a : Span.t).hi < (b : Span.t).lo && ok rest
      in
      if not (ok (Range_list.spans t seg)) then
        Alcotest.failf "%s: %s spans not sorted/disjoint/non-adjacent" msg
          (Segment.to_string seg))
    (Range_list.segments t)

let test_model_insert_normalize () =
  let rng = Random.State.make [| 0xFACE; 1 |] in
  for trial = 1 to 60 do
    let msg = Printf.sprintf "trial %d" trial in
    let t, bits = gen_model_pair rng in
    check_matches_model msg t bits;
    check_normalized msg t;
    check_int (msg ^ ": size") (model_size bits) (Range_list.size t);
    check_int (msg ^ ": len") (model_len bits) (Range_list.len t)
  done

let test_model_algebra () =
  let rng = Random.State.make [| 0xFACE; 2 |] in
  for trial = 1 to 40 do
    let msg = Printf.sprintf "trial %d" trial in
    let ta, ba = gen_model_pair rng in
    let tb, bb = gen_model_pair rng in
    let u = Range_list.union ta tb in
    let i = Range_list.inter ta tb in
    let d = Range_list.diff ta tb in
    List.iter (fun t -> check_normalized msg t) [ u; i; d ];
    List.iter
      (fun seg ->
        for x = 0 to addr_limit - 1 do
          let a = model_mem ba seg x and b = model_mem bb seg x in
          if Range_list.mem u seg x <> (a || b) then
            Alcotest.failf "%s: union mismatch at %d" msg x;
          if Range_list.mem i seg x <> (a && b) then
            Alcotest.failf "%s: inter mismatch at %d" msg x;
          if Range_list.mem d seg x <> (a && not b) then
            Alcotest.failf "%s: diff mismatch at %d" msg x
        done)
      model_segs;
    check_bool (msg ^ ": equal agrees with model") (model_equal ba bb)
      (Range_list.equal ta tb);
    check_bool (msg ^ ": subset agrees with model")
      (List.for_all
         (fun seg ->
           let rec go x =
             x >= addr_limit
             || ((not (model_mem ba seg x)) || model_mem bb seg x) && go (x + 1)
           in
           go 0)
         model_segs)
      (Range_list.subset ta tb)
  done

let test_model_covered_spans () =
  let rng = Random.State.make [| 0xFACE; 3 |] in
  for trial = 1 to 40 do
    let msg = Printf.sprintf "trial %d" trial in
    let t, bits = gen_model_pair rng in
    for _ = 1 to 10 do
      let lo = Random.State.int rng (addr_limit - 100) in
      let window = span lo (lo + 1 + Random.State.int rng 100) in
      let seg = List.nth model_segs (Random.State.int rng (List.length model_segs)) in
      let parts = Range_list.covered_spans t seg window in
      (* parts are clipped to the window, sorted, disjoint *)
      List.iter
        (fun (s : Span.t) ->
          if s.lo < window.Span.lo || s.hi > window.Span.hi || Span.is_empty s
          then Alcotest.failf "%s: part outside window" msg)
        parts;
      let rec sorted = function
        | [] | [ _ ] -> true
        | (a : Span.t) :: (b :: _ as rest) -> a.hi <= (b : Span.t).lo && sorted rest
      in
      if not (sorted parts) then Alcotest.failf "%s: parts unsorted" msg;
      (* pointwise coverage within the window matches the model *)
      for x = window.Span.lo to window.Span.hi - 1 do
        let covered = List.exists (fun s -> Span.contains s x) parts in
        if covered <> model_mem bits seg x then
          Alcotest.failf "%s: covered_spans mismatch at %d" msg x
      done
    done
  done

let test_model_similarity () =
  let rng = Random.State.make [| 0xFACE; 4 |] in
  for trial = 1 to 40 do
    let msg = Printf.sprintf "trial %d" trial in
    let ta, ba = gen_model_pair rng in
    let tb, bb = gen_model_pair rng in
    let inter_pop =
      List.fold_left
        (fun n seg ->
          let acc = ref n in
          for x = 0 to addr_limit - 1 do
            if model_mem ba seg x && model_mem bb seg x then incr acc
          done;
          !acc)
        0 model_segs
    in
    let pa = model_size ba and pb = model_size bb in
    let expected =
      if max pa pb = 0 then 0.
      else float_of_int inter_pop /. float_of_int (max pa pb)
    in
    let s = Range_list.similarity ta tb in
    Alcotest.(check (float 1e-9)) (msg ^ ": similarity matches model") expected s;
    Alcotest.(check (float 1e-9)) (msg ^ ": symmetric") s
      (Range_list.similarity tb ta);
    check_bool (msg ^ ": bounded") true (s >= 0. && s <= 1.)
  done

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "ranges.span",
      [
        tc "make/size/is_empty" test_span_make_size;
        tc "invalid make" test_span_make_invalid;
        tc "contains" test_span_contains;
        tc "overlaps" test_span_overlaps;
        tc "adjacent" test_span_adjacent;
        tc "inter" test_span_inter;
        tc "merge" test_span_merge;
        tc "shift" test_span_shift;
      ] );
    ( "ranges.segment",
      [
        tc "to_string/of_string roundtrip" test_segment_roundtrip;
        tc "of_string rejects garbage" test_segment_of_string_invalid;
        tc "ordering" test_segment_order;
      ] );
    ( "ranges.range_list",
      [
        tc "adjacent spans merge" test_rl_add_merges_adjacent;
        tc "overlapping spans merge" test_rl_add_merges_overlap;
        tc "disjoint spans stay separate" test_rl_disjoint_spans;
        tc "bridging insert collapses" test_rl_bridging_insert;
        tc "segments are independent" test_rl_segments_independent;
        tc "empty spans ignored" test_rl_empty_span_ignored;
        tc "inter" test_rl_inter;
        tc "inter over multiple spans" test_rl_inter_multi_span;
        tc "diff" test_rl_diff;
        tc "union" test_rl_union;
        tc "subset" test_rl_subset;
        tc "similarity (Equation 1)" test_rl_similarity;
        tc "covered_spans" test_rl_covered_spans;
      ] );
    ("ranges.properties", qsuite);
    ( "ranges.model",
      [
        tc "seeded inserts match bitset model; stay normalized"
          test_model_insert_normalize;
        tc "union/inter/diff/equal/subset match bitset model" test_model_algebra;
        tc "covered_spans matches bitset model" test_model_covered_spans;
        tc "similarity matches bitset model; symmetric, bounded"
          test_model_similarity;
      ] );
  ]
