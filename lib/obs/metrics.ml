type counter = { mutable c_value : int }

let bucket_count = 62

type histogram = {
  buckets : int array; (* index = floor(log2 v), clamped *)
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

type instrument =
  | I_counter of counter
  | I_gauge of (unit -> int) ref
  | I_histogram of histogram

type registered = {
  subsystem : string;
  name : string;
  label : string option;
  inst : instrument;
}

type t = {
  by_key : (string, registered) Hashtbl.t;
  mutable order : registered list; (* reverse registration order *)
}

let create () = { by_key = Hashtbl.create 64; order = [] }
let key ~subsystem name = subsystem ^ "." ^ name

let labeled_key ~subsystem name label =
  subsystem ^ "." ^ name ^ "{" ^ label ^ "}"

let register t ~subsystem ?label name inst =
  let r = { subsystem; name; label; inst } in
  let k =
    match label with
    | None -> key ~subsystem name
    | Some l -> labeled_key ~subsystem name l
  in
  Hashtbl.replace t.by_key k r;
  t.order <- r :: t.order;
  r

let counter t ~subsystem name =
  match Hashtbl.find_opt t.by_key (key ~subsystem name) with
  | Some { inst = I_counter c; _ } -> c
  | Some _ -> invalid_arg ("Metrics.counter: key registered as non-counter: " ^ name)
  | None ->
      let c = { c_value = 0 } in
      ignore (register t ~subsystem name (I_counter c));
      c

let fresh_histogram () =
  { buckets = Array.make bucket_count 0; h_count = 0; h_sum = 0; h_max = 0 }

let histogram t ~subsystem name =
  match Hashtbl.find_opt t.by_key (key ~subsystem name) with
  | Some { inst = I_histogram h; _ } -> h
  | Some _ ->
      invalid_arg ("Metrics.histogram: key registered as non-histogram: " ^ name)
  | None ->
      let h = fresh_histogram () in
      ignore (register t ~subsystem name (I_histogram h));
      h

let gauge t ~subsystem name f =
  match Hashtbl.find_opt t.by_key (key ~subsystem name) with
  | Some { inst = I_gauge r; _ } -> r := f
  | Some _ -> invalid_arg ("Metrics.gauge: key registered as non-gauge: " ^ name)
  | None -> ignore (register t ~subsystem name (I_gauge (ref f)))

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value
let reset c = c.c_value <- 0

let bucket_of v =
  if v <= 1 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 1 do
      v := !v lsr 1;
      i := !i + 1
    done;
    min !i (bucket_count - 1)
  end

let observe h v =
  let v = max 0 v in
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

let reset_histogram h =
  Array.fill h.buckets 0 bucket_count 0;
  h.h_count <- 0;
  h.h_sum <- 0;
  h.h_max <- 0

(* {1 Labeled families} *)

type family = { fam_reg : t; fam_subsystem : string; fam_name : string }

let counter_family t ~subsystem name =
  { fam_reg = t; fam_subsystem = subsystem; fam_name = name }

let histogram_family = counter_family

let family_counter fam label =
  let t = fam.fam_reg in
  let k = labeled_key ~subsystem:fam.fam_subsystem fam.fam_name label in
  match Hashtbl.find_opt t.by_key k with
  | Some { inst = I_counter c; _ } -> c
  | Some _ ->
      invalid_arg ("Metrics.family_counter: key registered as non-counter: " ^ k)
  | None ->
      let c = { c_value = 0 } in
      ignore
        (register t ~subsystem:fam.fam_subsystem ~label fam.fam_name
           (I_counter c));
      c

let family_histogram fam label =
  let t = fam.fam_reg in
  let k = labeled_key ~subsystem:fam.fam_subsystem fam.fam_name label in
  match Hashtbl.find_opt t.by_key k with
  | Some { inst = I_histogram h; _ } -> h
  | Some _ ->
      invalid_arg
        ("Metrics.family_histogram: key registered as non-histogram: " ^ k)
  | None ->
      let h = fresh_histogram () in
      ignore
        (register t ~subsystem:fam.fam_subsystem ~label fam.fam_name
           (I_histogram h));
      h

let reset_family fam =
  List.iter
    (fun r ->
      if
        r.label <> None
        && String.equal r.subsystem fam.fam_subsystem
        && String.equal r.name fam.fam_name
      then
        match r.inst with
        | I_counter c -> reset c
        | I_histogram h -> reset_histogram h
        | I_gauge _ -> ())
    fam.fam_reg.order

let labels t k =
  List.fold_left
    (fun acc r ->
      match r.label with
      | Some l when String.equal (key ~subsystem:r.subsystem r.name) k -> (
          match r.inst with
          | I_counter c -> (l, c.c_value) :: acc
          | I_gauge f -> (l, !f ()) :: acc
          | I_histogram _ -> acc)
      | _ -> acc)
    [] t.order

(* {1 Snapshots} *)

type histogram_snapshot = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_buckets : (int * int) list;
}

type sample_value =
  | Counter of int
  | Gauge of int
  | Histogram of histogram_snapshot

type sample = {
  subsystem : string;
  name : string;
  label : string option;
  value : sample_value;
}

let snapshot_histogram (h : histogram) =
  let buckets = ref [] in
  for i = bucket_count - 1 downto 0 do
    if h.buckets.(i) > 0 then buckets := (i, h.buckets.(i)) :: !buckets
  done;
  { h_count = h.h_count; h_sum = h.h_sum; h_max = h.h_max; h_buckets = !buckets }

(* [t.order] is reverse registration order, so the fold yields
   registration order: a deterministic run gives a byte-stable list. *)
let samples ~gauges t =
  List.fold_left
    (fun acc r ->
      let value =
        match r.inst with
        | I_counter c -> Some (Counter c.c_value)
        | I_gauge f -> if gauges then Some (Gauge (!f ())) else None
        | I_histogram h -> Some (Histogram (snapshot_histogram h))
      in
      match value with
      | Some value ->
          { subsystem = r.subsystem; name = r.name; label = r.label; value }
          :: acc
      | None -> acc)
    [] t.order

let snapshot = samples ~gauges:true

let find t k =
  match Hashtbl.find_opt t.by_key k with
  | Some { inst = I_counter c; _ } -> Some c.c_value
  | Some { inst = I_gauge f; _ } -> Some (!f ())
  | Some { inst = I_histogram _; _ } | None -> None

(* {1 Dump / load} *)

let dump = samples ~gauges:false

let load t samples =
  List.iter
    (fun s ->
      match s.value with
      | Gauge _ -> ()
      | Counter v ->
          let c =
            match s.label with
            | None -> counter t ~subsystem:s.subsystem s.name
            | Some label ->
                family_counter
                  (counter_family t ~subsystem:s.subsystem s.name)
                  label
          in
          c.c_value <- v
      | Histogram d ->
          let h =
            match s.label with
            | None -> histogram t ~subsystem:s.subsystem s.name
            | Some label ->
                family_histogram
                  (histogram_family t ~subsystem:s.subsystem s.name)
                  label
          in
          reset_histogram h;
          List.iter
            (fun (pow2, n) ->
              if pow2 >= 0 && pow2 < bucket_count then h.buckets.(pow2) <- n)
            d.h_buckets;
          h.h_count <- d.h_count;
          h.h_sum <- d.h_sum;
          h.h_max <- d.h_max)
    samples

(* Percentile estimate from log2 buckets: find the bucket holding the
   q-th observation, then interpolate linearly inside its value range
   [2^pow2, 2^(pow2+1)) — capped at the observed max, which is exact for
   the top bucket.  An empty histogram has no quantiles: nan, never a
   fake 0 that downstream math could mistake for a real observation. *)
let percentile (s : histogram_snapshot) q =
  if s.h_count = 0 then Float.nan
  else begin
    let target = Float.max 1. (q *. float_of_int s.h_count) in
    let rec walk cum = function
      | [] -> float_of_int s.h_max
      | (pow2, n) :: rest ->
          let cum' = cum + n in
          if float_of_int cum' >= target then begin
            let lo = if pow2 = 0 then 0. else ldexp 1. pow2 in
            let hi =
              Float.max lo
                (Float.min (ldexp 1. (pow2 + 1)) (float_of_int s.h_max +. 1.))
            in
            let frac = (target -. float_of_int cum) /. float_of_int n in
            lo +. (frac *. (hi -. lo))
          end
          else walk cum' rest
    in
    walk 0 s.h_buckets
  end
