(* Delta-encoded time series over the metrics registry.

   Each tick scrapes Metrics.snapshot and records, per instrument key:
   counters as the delta since the previous tick (the first tick counts
   from zero, so the deltas of a full run re-sum to the final registry
   totals by construction), gauges as their value at the boundary, and
   histograms as a per-interval row of bucket deltas (percentiles are
   recomputable from the row, which is what lets merged fleet series
   still answer quantile questions).  Points live in a bounded ring, so
   a long run keeps the most recent window and reports what it shed. *)

type hrow = {
  hr_count : int;
  hr_sum : int;
  hr_max : int; (* cumulative max at the boundary, not per-interval *)
  hr_buckets : (int * int) list; (* (pow2, count delta), ascending, no zeros *)
}

type point = {
  p_boundary : int; (* 1-based interval index *)
  p_instructions : int; (* retired guest instructions at the tick *)
  p_wall : float option; (* wall clock, if the caller recorded one *)
  p_counters : (string * int) list;
  p_gauges : (string * int) list;
  p_histograms : (string * hrow) list;
}

type series = {
  s_period : int;
  s_intervals : int; (* ticks fired over the series' lifetime *)
  s_dropped : int; (* points shed by the ring *)
  s_points : point list; (* oldest first *)
}

type t = {
  metrics : Metrics.t;
  period : int;
  ring : point Ring.t;
  mutable intervals : int;
  prev_counters : (string, int) Hashtbl.t;
  prev_hists : (string, Metrics.histogram_snapshot) Hashtbl.t;
}

let create ?(capacity = 4096) ~period metrics =
  if period < 1 then invalid_arg "Timeseries.create: period must be >= 1";
  {
    metrics;
    period;
    ring = Ring.create ~capacity;
    intervals = 0;
    prev_counters = Hashtbl.create 64;
    prev_hists = Hashtbl.create 16;
  }

let period t = t.period
let intervals t = t.intervals

let sample_key (s : Metrics.sample) =
  let base = s.Metrics.subsystem ^ "." ^ s.Metrics.name in
  match s.Metrics.label with None -> base | Some l -> base ^ "{" ^ l ^ "}"

(* Bucket lists are ascending by pow2 with zero buckets omitted; the
   delta of two such lists is again one (counters only grow). *)
let bucket_delta ~prev ~now =
  let rec go prev now =
    match (prev, now) with
    | [], rest -> rest
    | _ :: _, [] -> [] (* unreachable: buckets never shrink *)
    | (pp, pc) :: ptl, (np, nc) :: ntl ->
        if np < pp then (np, nc) :: go prev ntl
        else if np = pp then
          let d = nc - pc in
          if d = 0 then go ptl ntl else (np, d) :: go ptl ntl
        else go ptl now
  in
  go prev now

let tick ?wall t ~instructions =
  t.intervals <- t.intervals + 1;
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun (s : Metrics.sample) ->
      let key = sample_key s in
      match s.Metrics.value with
      | Metrics.Counter v ->
          let prev =
            Option.value ~default:0 (Hashtbl.find_opt t.prev_counters key)
          in
          Hashtbl.replace t.prev_counters key v;
          counters := (key, v - prev) :: !counters
      | Metrics.Gauge v -> gauges := (key, v) :: !gauges
      | Metrics.Histogram h ->
          let prev =
            match Hashtbl.find_opt t.prev_hists key with
            | Some p -> p
            | None ->
                { Metrics.h_count = 0; h_sum = 0; h_max = 0; h_buckets = [] }
          in
          Hashtbl.replace t.prev_hists key h;
          let row =
            {
              hr_count = h.Metrics.h_count - prev.Metrics.h_count;
              hr_sum = h.Metrics.h_sum - prev.Metrics.h_sum;
              hr_max = h.Metrics.h_max;
              hr_buckets =
                bucket_delta ~prev:prev.Metrics.h_buckets
                  ~now:h.Metrics.h_buckets;
            }
          in
          hists := (key, row) :: !hists)
    (Metrics.snapshot t.metrics);
  Ring.push t.ring
    {
      p_boundary = t.intervals;
      p_instructions = instructions;
      p_wall = wall;
      p_counters = List.rev !counters;
      p_gauges = List.rev !gauges;
      p_histograms = List.rev !hists;
    }

let export t =
  {
    s_period = t.period;
    s_intervals = t.intervals;
    s_dropped = Ring.dropped t.ring;
    s_points = Ring.to_list t.ring;
  }

(* ------------------------------------------------------------------ *)
(* Series algebra (plain data: safe to move across Domains)            *)
(* ------------------------------------------------------------------ *)

let row_percentile (r : hrow) q =
  Metrics.percentile
    {
      Metrics.h_count = r.hr_count;
      h_sum = r.hr_sum;
      h_max = r.hr_max;
      h_buckets = r.hr_buckets;
    }
    q

let totals s =
  let acc = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun (k, d) ->
          (match Hashtbl.find_opt acc k with
          | None -> order := k :: !order
          | Some _ -> ());
          Hashtbl.replace acc k
            (d + Option.value ~default:0 (Hashtbl.find_opt acc k)))
        p.p_counters)
    s.s_points;
  List.rev_map (fun k -> (k, Hashtbl.find acc k)) !order

let sum_assoc (type k) ~(compare : k -> k -> int) rows =
  let acc : (k, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace acc k
           (v + Option.value ~default:0 (Hashtbl.find_opt acc k))))
    rows;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merge_hrows rows =
  let acc = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (k, (r : hrow)) ->
         let m =
           match Hashtbl.find_opt acc k with
           | None -> { hr_count = 0; hr_sum = 0; hr_max = 0; hr_buckets = [] }
           | Some m -> m
         in
         Hashtbl.replace acc k
           {
             hr_count = m.hr_count + r.hr_count;
             hr_sum = m.hr_sum + r.hr_sum;
             hr_max = max m.hr_max r.hr_max;
             hr_buckets =
               sum_assoc ~compare:Int.compare [ m.hr_buckets; r.hr_buckets ];
           }))
    rows;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge = function
  | [] -> invalid_arg "Timeseries.merge: empty"
  | first :: _ as all ->
      List.iter
        (fun s ->
          if s.s_period <> first.s_period then
            invalid_arg "Timeseries.merge: mismatched periods")
        all;
      (* align by nominal boundary index: guests tick at the same
         instruction marks, so boundary b means the same [b*period]
         instructions of local progress in every series *)
      let by_boundary = Hashtbl.create 64 in
      List.iter
        (fun s ->
          List.iter
            (fun p ->
              let l =
                Option.value ~default:[]
                  (Hashtbl.find_opt by_boundary p.p_boundary)
              in
              Hashtbl.replace by_boundary p.p_boundary (p :: l))
            s.s_points)
        all;
      let boundaries =
        Hashtbl.fold (fun b _ l -> b :: l) by_boundary []
        |> List.sort Int.compare
      in
      let points =
        List.map
          (fun b ->
            let ps = Hashtbl.find by_boundary b in
            let wall =
              List.fold_left
                (fun acc p ->
                  match (acc, p.p_wall) with
                  | None, w -> w
                  | Some a, Some w -> Some (Float.max a w)
                  | Some a, None -> Some a)
                None ps
            in
            {
              p_boundary = b;
              p_instructions =
                List.fold_left (fun a p -> a + p.p_instructions) 0 ps;
              p_wall = wall;
              p_counters =
                sum_assoc ~compare:String.compare
                  (List.map (fun p -> p.p_counters) ps);
              p_gauges =
                sum_assoc ~compare:String.compare
                  (List.map (fun p -> p.p_gauges) ps);
              p_histograms = merge_hrows (List.map (fun p -> p.p_histograms) ps);
            })
          boundaries
      in
      {
        s_period = first.s_period;
        s_intervals =
          List.fold_left (fun a s -> max a s.s_intervals) 0 all;
        s_dropped = List.fold_left (fun a s -> a + s.s_dropped) 0 all;
        s_points = points;
      }

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

(* Keys describing the host's translation caches rather than the guest:
   the fast-path hit/miss accounting (which differs between engines) and
   the decode-cache occupancy (which a restored machine rebuilds from
   empty).  Everything else is pinned
   identical by the differential harness, so a fingerprint excluding
   these must match across both engines (and across fleet domain
   counts). *)
let engine_excludes =
  [ "tlb"; "sb"; "os.decode_cache_frames" ]

let excluded exclude key =
  let sub =
    match String.index_opt key '.' with
    | Some i -> String.sub key 0 i
    | None -> key
  in
  List.mem sub exclude || List.mem key exclude

let fingerprint ?(exclude = engine_excludes) s =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "period=%d intervals=%d\n" s.s_period s.s_intervals);
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "@%d instrs=%d\n" p.p_boundary p.p_instructions);
      List.iter
        (fun (k, d) ->
          if not (excluded exclude k) then
            Buffer.add_string b (Printf.sprintf "C %s %d\n" k d))
        p.p_counters;
      List.iter
        (fun (k, v) ->
          if not (excluded exclude k) then
            Buffer.add_string b (Printf.sprintf "G %s %d\n" k v))
        p.p_gauges;
      List.iter
        (fun (k, (r : hrow)) ->
          if not (excluded exclude k) then begin
            Buffer.add_string b
              (Printf.sprintf "H %s %d %d %d" k r.hr_count r.hr_sum r.hr_max);
            List.iter
              (fun (pow2, n) -> Buffer.add_string b (Printf.sprintf " %d:%d" pow2 n))
              r.hr_buckets;
            Buffer.add_char b '\n'
          end)
        p.p_histograms)
    s.s_points;
  Digest.to_hex (Digest.string (Buffer.contents b))
