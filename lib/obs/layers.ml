let layers =
  List.map Span.kind_label
    [ Span.Run_slice; Exit_handling; Backtrace; Recovery; View_build ]
  @ [ "sched" ]

let sched = List.length layers - 1

let index label =
  let rec go i = function
    | [] -> sched
    | l :: rest -> if l = label then i else go (i + 1) rest
  in
  go 0 layers

type t = {
  clock : unit -> float;
  split : float array;  (* seconds per layer, in [layers] order *)
  mutable total : float;
  mutable open_spans : (int * int) list;  (* (sid, layer), innermost first *)
  mutable guest : int;  (* bumped by [attach]: older guests are ignored *)
  mutable timing : bool;
  mutable mark : float;  (* clock at the last charge *)
}

let create ~clock =
  {
    clock;
    split = Array.make (List.length layers) 0.;
    total = 0.;
    open_spans = [];
    guest = 0;
    timing = false;
    mark = 0.;
  }

let charge t now =
  let l = match t.open_spans with (_, l) :: _ -> l | [] -> sched in
  t.split.(l) <- t.split.(l) +. (now -. t.mark);
  t.mark <- now

(* Span ends arrive properly nested per vCPU; removing by id keeps the
   innermost span right when several vCPUs' stacks interleave. *)
let on_record t guest (r : Trace.record) =
  if guest = t.guest then
    match r.Trace.event with
    | Event.Span_begin { sid; span; _ } ->
        if t.timing then charge t (t.clock ());
        t.open_spans <- (sid, index span) :: t.open_spans
    | Event.Span_end { sid; _ } ->
        if t.timing then charge t (t.clock ());
        t.open_spans <- List.filter (fun (s, _) -> s <> sid) t.open_spans
    | _ -> ()

let attach t sink =
  t.guest <- t.guest + 1;
  t.open_spans <- [];
  Trace.subscribe sink (on_record t t.guest)

let time t f =
  if t.timing then invalid_arg "Layers.time: stretches do not nest";
  let t0 = t.clock () in
  t.mark <- t0;
  t.timing <- true;
  Fun.protect f ~finally:(fun () ->
      let t1 = t.clock () in
      charge t t1;
      t.timing <- false;
      t.total <- t.total +. (t1 -. t0))

let follow layers sink =
  match layers with
  | None -> fun f -> f ()
  | Some t ->
      attach t sink;
      fun f -> time t f

let total t = t.total

let self t name = if List.mem name layers then t.split.(index name) else 0.

let to_json t =
  Jsonx.Obj (List.mapi (fun i name -> (name, Jsonx.Float t.split.(i))) layers)
