type t = { domains : int }

let parallel = Backend.parallel

let create ?domains () =
  let domains =
    match domains with Some d -> d | None -> Backend.default_workers ()
  in
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  { domains }

let domains t = t.domains
let workers t n = max 1 (min t.domains n)

let map t n f =
  if n < 0 then invalid_arg "Pool.map: negative count";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let workers = workers t n in
    (* strided shards: worker w owns indices w, w+workers, w+2*workers...
       Each slot is written by exactly one worker; Backend.run joins every
       worker before returning, which orders those writes before our
       reads. *)
    Backend.run ~workers (fun w ->
        let i = ref w in
        while !i < n do
          results.(!i) <- Some (f !i);
          i := !i + workers
        done);
    Array.map
      (function
        | Some v -> v
        | None -> failwith "Pool.map: unfilled slot (backend bug)")
      results
  end

let iter t n f = ignore (map t n f : unit array)
