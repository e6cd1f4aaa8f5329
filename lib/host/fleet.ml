module Stats = Fc_core.Stats
module Timeseries = Fc_obs.Timeseries
module Sampler = Fc_obs.Sampler

type telemetry = {
  t_series : Timeseries.series;
  t_folds : Sampler.fold list;
  t_samples : int;
}

type guest = {
  g_index : int;
  g_app : string;
  g_outcome : string;
  g_stats : Stats.t;
  g_instructions : int;
  g_cycles : int;
  g_frame_keys : string list;
  g_telemetry : telemetry option;
  g_digest : string;
}

(* Integer counters and content keys only: derived floats never enter a
   digest, so fingerprints compare exactly across domain
   counts, runs, and platforms. *)
let digest_of ~app ~outcome ~stats ~instructions ~cycles ~frame_keys =
  let b = Buffer.create 1024 in
  let add_kv (k, v) =
    Buffer.add_string b k;
    Buffer.add_char b '=';
    Buffer.add_string b (string_of_int v);
    Buffer.add_char b ';'
  in
  Buffer.add_string b app;
  Buffer.add_char b '\n';
  Buffer.add_string b outcome;
  Buffer.add_char b '\n';
  List.iter add_kv (Stats.fields stats);
  List.iter
    (fun (comm, a) ->
      Buffer.add_string b comm;
      Buffer.add_char b ':';
      List.iter add_kv (Stats.per_app_fields a))
    stats.Stats.per_app;
  add_kv ("instructions", instructions);
  add_kv ("cycles", cycles);
  List.iter
    (fun k ->
      Buffer.add_string b k;
      Buffer.add_char b ',')
    frame_keys;
  Digest.to_hex (Digest.string (Buffer.contents b))

let guest ?telemetry ~index ~app ~outcome ~stats ~instructions ~cycles
    ~frame_keys () =
  {
    g_index = index;
    g_app = app;
    g_outcome = outcome;
    g_stats = stats;
    g_instructions = instructions;
    g_cycles = cycles;
    g_frame_keys = frame_keys;
    g_telemetry = telemetry;
    (* telemetry never enters the digest: the same seed must fingerprint
       identically with the profiler armed or disarmed *)
    g_digest =
      digest_of ~app ~outcome ~stats ~instructions ~cycles ~frame_keys;
  }

type report = {
  r_domains : int;
  r_guests : int;
  r_instructions : int;
  r_cycles : int;
  r_merged : Stats.t;
  r_outcomes : (string * int) list;
  r_panics : int;
  r_wedged : int;
  r_total_frames : int;
  r_unique_frames : int;
  r_dedup_ratio : float;
  r_per_app_ok : bool;
  r_fingerprint : string;
  r_telemetry : telemetry option;
  r_guests_detail : guest array;
}

(* Telemetry merges like Stats does: aligned interval union through
   Timeseries.merge, per-stack fold through Sampler.merge.  Both operate
   on plain data folded after the pool joins, so the merged result is
   independent of the domain count. *)
let merge_telemetry guests =
  let ts =
    Array.to_list guests |> List.filter_map (fun g -> g.g_telemetry)
  in
  match ts with
  | [] -> None
  | _ ->
      Some
        {
          t_series = Timeseries.merge (List.map (fun t -> t.t_series) ts);
          t_folds = Sampler.merge (List.map (fun t -> t.t_folds) ts);
          t_samples = List.fold_left (fun a t -> a + t.t_samples) 0 ts;
        }

let merge ~domains guests =
  let sum f = Array.fold_left (fun acc g -> acc + f g) 0 guests in
  let instructions = sum (fun g -> g.g_instructions) in
  let cycles = sum (fun g -> g.g_cycles) in
  let merged = Stats.merge (List.map (fun g -> g.g_stats) (Array.to_list guests)) in
  let outcomes =
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun g ->
        Hashtbl.replace tbl g.g_outcome
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl g.g_outcome)))
      guests;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let total_frames = sum (fun g -> List.length g.g_frame_keys) in
  let unique_frames =
    let seen = Hashtbl.create 1024 in
    Array.iter
      (fun g -> List.iter (fun k -> Hashtbl.replace seen k ()) g.g_frame_keys)
      guests;
    Hashtbl.length seen
  in
  let dedup_ratio =
    if total_frames = 0 then 0.
    else 1. -. (float_of_int unique_frames /. float_of_int total_frames)
  in
  let fingerprint =
    let b = Buffer.create (Array.length guests * 33) in
    Array.iter
      (fun g ->
        Buffer.add_string b g.g_digest;
        Buffer.add_char b '\n')
      guests;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let count_outcome p =
    Array.fold_left (fun acc g -> if p g.g_outcome then acc + 1 else acc) 0 guests
  in
  let starts_with ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  {
    r_domains = domains;
    r_guests = Array.length guests;
    r_instructions = instructions;
    r_cycles = cycles;
    r_merged = merged;
    r_outcomes = outcomes;
    r_panics = count_outcome (starts_with ~prefix:"panic");
    r_wedged = count_outcome (String.equal "wedged");
    r_total_frames = total_frames;
    r_unique_frames = unique_frames;
    r_dedup_ratio = dedup_ratio;
    r_per_app_ok = Stats.attribution_ok merged;
    r_fingerprint = fingerprint;
    r_telemetry = merge_telemetry guests;
    r_guests_detail = guests;
  }

let run ?domains ~guests f =
  let pool = Pool.create ?domains () in
  let results = Pool.map pool guests f in
  Array.iteri
    (fun i g ->
      if g.g_index <> i then
        failwith
          (Printf.sprintf "Fleet.run: guest %d reported index %d" i g.g_index))
    results;
  merge ~domains:(Pool.domains pool) results
