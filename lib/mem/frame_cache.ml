(* Content-keyed cache of shareable frames.

   An entry remembers the frame's version at registration time; a lookup
   only hits while the frame is still live with that exact version, so a
   frame that was freed, recycled, or written in place (a refcount-1
   copy-on-write "break") invalidates itself without any eager
   bookkeeping. *)

module Obs = Fc_obs.Obs
module Metrics = Fc_obs.Metrics
module Event = Fc_obs.Event

type entry = { frame : int; version : int }

type t = {
  phys : Phys_mem.t;
  entries : (string, entry) Hashtbl.t;
  obs : Obs.t option;
  hits : Metrics.counter;
  misses : Metrics.counter;
  cow_breaks : Metrics.counter;
  hits_f : Metrics.family; (* cache.hits{label}, per requesting view/app *)
}

let create ?obs phys =
  let m =
    match obs with Some o -> Obs.metrics o | None -> Metrics.create ()
  in
  (* registration order is the snapshot's METR order *)
  let cow_breaks = Metrics.counter m ~subsystem:"cache" "cow_breaks" in
  let misses = Metrics.counter m ~subsystem:"cache" "misses" in
  let hits = Metrics.counter m ~subsystem:"cache" "hits" in
  let t =
    {
      phys;
      entries = Hashtbl.create 256;
      obs;
      hits;
      misses;
      cow_breaks;
      hits_f = Metrics.counter_family m ~subsystem:"cache" "hits";
    }
  in
  Metrics.reset t.hits;
  Metrics.reset t.misses;
  Metrics.reset t.cow_breaks;
  Metrics.reset_family t.hits_f;
  t

let valid t e =
  Phys_mem.is_live t.phys e.frame && Phys_mem.version t.phys e.frame = e.version

let find t ?label key =
  match Hashtbl.find_opt t.entries key with
  | Some e when valid t e ->
      Metrics.incr t.hits;
      (match label with
      | Some l -> Metrics.incr (Metrics.family_counter t.hits_f l)
      | None -> ());
      Phys_mem.incref t.phys e.frame;
      (match t.obs with
      | Some o when Obs.armed o -> Obs.emit o (Event.Frame_share { frame = e.frame })
      | Some _ | None -> ());
      Some e.frame
  | Some _ ->
      Hashtbl.remove t.entries key;
      Metrics.incr t.misses;
      None
  | None ->
      Metrics.incr t.misses;
      None

let register t key frame =
  Hashtbl.replace t.entries key
    { frame; version = Phys_mem.version t.phys frame }

let note_cow_break t = Metrics.incr t.cow_breaks
let hits t = Metrics.value t.hits
let misses t = Metrics.value t.misses
let cow_breaks t = Metrics.value t.cow_breaks

let resident t =
  Hashtbl.fold (fun _ e n -> if valid t e then n + 1 else n) t.entries 0

let resident_keys t =
  List.sort String.compare
    (Hashtbl.fold
       (fun key e acc -> if valid t e then key :: acc else acc)
       t.entries [])

let evict_all t =
  let n = resident t in
  Hashtbl.reset t.entries;
  n

let export t =
  List.sort
    (fun (a, _, _) (b, _, _) -> String.compare a b)
    (Hashtbl.fold
       (fun key e acc ->
         if valid t e then (key, e.frame, e.version) :: acc else acc)
       t.entries [])

let import t entries =
  List.iter
    (fun (key, frame, version) ->
      Hashtbl.replace t.entries key { frame; version })
    entries
