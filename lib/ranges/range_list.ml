module Seg_map = Map.Make (Segment)

(* Invariant: each segment maps to a non-empty sorted array of non-empty,
   pairwise disjoint, non-adjacent spans — an interval index.  Keeping the
   spans in a sorted array lets the hot queries of view materialization
   and recovery ([mem], [covered_spans]) bisect in O(log n) instead of
   scanning the whole list. *)
type t = Span.t array Seg_map.t

let empty = Seg_map.empty
let is_empty = Seg_map.is_empty

(* Leftmost index whose span ends after [addr]: the unique candidate that
   can contain [addr], and the first span a window starting at [addr] can
   intersect.  [Array.length arr] when every span ends at or before
   [addr]. *)
let bisect_hi_gt (arr : Span.t array) addr =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid).Span.hi > addr then hi := mid else lo := mid + 1
  done;
  !lo

(* Insert [s] into sorted disjoint non-adjacent [arr], merging overlaps
   and adjacencies.  O(log n) to locate the affected window, O(n) for the
   rebuilt array. *)
let insert_span (arr : Span.t array) (s : Span.t) =
  let n = Array.length arr in
  (* first span that can merge with [s]: ends at or after s.lo *)
  let i = bisect_hi_gt arr (s.Span.lo - 1) in
  let merged = ref s and j = ref i in
  while !j < n && arr.(!j).Span.lo <= !merged.Span.hi do
    merged := Span.hull !merged arr.(!j);
    incr j
  done;
  let j = !j in
  let out = Array.make (n - (j - i) + 1) !merged in
  Array.blit arr 0 out 0 i;
  Array.blit arr j out (i + 1) (n - j);
  out

let add t seg s =
  if Span.is_empty s then t
  else
    Seg_map.update seg
      (function None -> Some [| s |] | Some arr -> Some (insert_span arr s))
      t

let add_range t seg ~lo ~hi = add t seg (Span.make ~lo ~hi)

(* Sort a fresh, non-empty array of non-empty spans in place and sweep it
   into the invariant's form, merging overlaps and adjacencies: one
   O(n log n) pass where [add] per span rebuilds the array each time. *)
let normalize (spans : Span.t array) =
  Array.sort Span.compare spans;
  let out = ref [] and cur = ref spans.(0) in
  for i = 1 to Array.length spans - 1 do
    let s = spans.(i) in
    if s.Span.lo <= !cur.Span.hi then cur := Span.hull !cur s
    else begin
      out := !cur :: !out;
      cur := s
    end
  done;
  Array.of_list (List.rev (!cur :: !out))

let of_list l =
  List.fold_left
    (fun t (seg, s) ->
      if Span.is_empty s then t
      else
        Seg_map.update seg
          (function None -> Some [ s ] | Some ss -> Some (s :: ss))
          t)
    Seg_map.empty l
  |> Seg_map.map (fun ss -> normalize (Array.of_list ss))

let to_list t =
  Seg_map.fold
    (fun seg arr acc -> List.map (fun s -> (seg, s)) (Array.to_list arr) :: acc)
    t []
  |> List.rev |> List.concat

let segments t = Seg_map.fold (fun seg _ acc -> seg :: acc) t [] |> List.rev
let spans t seg = Option.value ~default:[] (Option.map Array.to_list (Seg_map.find_opt seg t))

let mem t seg addr =
  match Seg_map.find_opt seg t with
  | None -> false
  | Some arr ->
      let i = bisect_hi_gt arr addr in
      i < Array.length arr && Span.contains arr.(i) addr

let covered_spans t seg (window : Span.t) =
  match Seg_map.find_opt seg t with
  | None -> []
  | Some arr ->
      let n = Array.length arr in
      let i = ref (bisect_hi_gt arr window.Span.lo) in
      let acc = ref [] in
      while !i < n && arr.(!i).Span.lo < window.Span.hi do
        (match Span.inter arr.(!i) window with
        | Some s -> acc := s :: !acc
        | None -> ());
        incr i
      done;
      List.rev !acc

let union a b =
  Seg_map.union (fun _seg xs ys -> Some (normalize (Array.append xs ys))) a b

let inter_spans xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], _ | _, [] -> List.rev acc
    | (x : Span.t) :: xr, (y : Span.t) :: yr ->
        let acc = match Span.inter x y with Some s -> s :: acc | None -> acc in
        if x.hi <= y.hi then go acc xr ys else go acc xs yr
  in
  go [] xs ys

let inter a b =
  Seg_map.merge
    (fun _seg xa xb ->
      match (xa, xb) with
      | Some xs, Some ys -> (
          match inter_spans (Array.to_list xs) (Array.to_list ys) with
          | [] -> None
          | l -> Some (Array.of_list l))
      | _ -> None)
    a b

(* Subtract sorted disjoint [ys] from span [x]. *)
let diff_span (x : Span.t) ys =
  let rec go acc lo = function
    | [] -> if lo < x.hi then Span.make ~lo ~hi:x.hi :: acc else acc
    | (y : Span.t) :: yr ->
        if y.hi <= lo then go acc lo yr
        else if y.lo >= x.hi then go acc lo []
        else
          let acc = if y.lo > lo then Span.make ~lo ~hi:y.lo :: acc else acc in
          if y.hi < x.hi then go acc y.hi yr else acc
  in
  List.rev (go [] x.lo ys)

let diff a b =
  Seg_map.merge
    (fun _seg xa xb ->
      match (xa, xb) with
      | Some xs, Some ys -> (
          let ys = Array.to_list ys in
          match List.concat_map (fun x -> diff_span x ys) (Array.to_list xs) with
          | [] -> None
          | l -> Some (Array.of_list l))
      | Some xs, None -> Some xs
      | None, _ -> None)
    a b

let len t = Seg_map.fold (fun _ arr n -> n + Array.length arr) t 0

let size t =
  Seg_map.fold
    (fun _ arr n -> Array.fold_left (fun n s -> n + Span.size s) n arr)
    t 0

let size_of_segment t seg = List.fold_left (fun n s -> n + Span.size s) 0 (spans t seg)

let similarity a b =
  let m = max (size a) (size b) in
  if m = 0 then 0. else float_of_int (size (inter a b)) /. float_of_int m

let subset a b = is_empty (diff a b)

let equal a b =
  Seg_map.equal
    (fun xs ys ->
      Array.length xs = Array.length ys
      && Array.for_all2 Span.equal xs ys)
    a b

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (seg, s) -> Format.fprintf ppf "%a %a@," Segment.pp seg Span.pp s)
    (to_list t);
  Format.fprintf ppf "@]"
