let page_size = 4096

(* Spare frame buffers, handed from a reclaimed pool to the next pool
   created over the same store. *)
type spare = Bytes.t Stack.t

let spare () = Stack.create ()
let spare_frames = Stack.length

type t = {
  mutable frames : Bytes.t option array;  (* None = never allocated / freed *)
  mutable versions : int array;           (* bumped on each write *)
  mutable digests : Digest.t array;       (* MD5 of the frame's bytes ... *)
  mutable digested : int array;           (* ... at this version; -1: none *)
  mutable hashed : int;                   (* digests computed by [digest] *)
  mutable refcounts : int array;          (* owners of a live frame *)
  mutable next : int;                     (* high-water mark *)
  mutable free_list : int list;
  mutable live : int;
  mutable on_release : (int -> unit) option;
      (* fired when a frame's last reference drops: caches keyed by frame
         number (the OS's per-frame lines) evict their entry instead of holding
         it until the frame number happens to be recycled *)
  mutable spare : spare option;
      (* where new frame buffers come from and where [reclaim] returns
         them; [None] once reclaimed *)
  allocs : Fc_obs.Metrics.counter;
  frees : Fc_obs.Metrics.counter;
}

let create ?metrics ?spare () =
  let m =
    match metrics with Some m -> m | None -> Fc_obs.Metrics.create ()
  in
  (* registration order is the snapshot's METR order *)
  let frees = Fc_obs.Metrics.counter m ~subsystem:"mem" "frames_freed" in
  let allocs = Fc_obs.Metrics.counter m ~subsystem:"mem" "frames_allocated" in
  let t =
    { frames = Array.make 64 None; versions = Array.make 64 0;
      digests = Array.make 64 ""; digested = Array.make 64 (-1); hashed = 0;
      refcounts = Array.make 64 0; next = 0; free_list = []; live = 0;
      on_release = None; spare; allocs; frees }
  in
  Fc_obs.Metrics.gauge m ~subsystem:"mem" "live_frames" (fun () -> t.live);
  t

let grow t want =
  if want >= Array.length t.frames then begin
    let cap = max (want + 1) (2 * Array.length t.frames) in
    let widen a empty =
      let w = Array.make cap empty in
      Array.blit a 0 w 0 (Array.length a);
      w
    in
    t.frames <- widen t.frames None;
    t.versions <- widen t.versions 0;
    t.digests <- widen t.digests "";
    t.digested <- widen t.digested (-1);
    t.refcounts <- widen t.refcounts 0
  end

(* A frame buffer with unspecified contents: a spare one if the store
   has any, else a new one. *)
let buffer t =
  match t.spare with
  | Some s when not (Stack.is_empty s) -> Stack.pop s
  | _ -> Bytes.create page_size

let alloc t =
  let f =
    match t.free_list with
    | f :: rest ->
        t.free_list <- rest;
        f
    | [] ->
        let f = t.next in
        t.next <- f + 1;
        grow t f;
        f
  in
  let b = buffer t in
  Bytes.fill b 0 page_size '\x00';
  t.frames.(f) <- Some b;
  t.versions.(f) <- t.versions.(f) + 1;
  t.refcounts.(f) <- 1;
  t.live <- t.live + 1;
  Fc_obs.Metrics.incr t.allocs;
  f

let alloc_n t n = List.init n (fun _ -> alloc t)

let is_live t f = f >= 0 && f < Array.length t.frames && t.frames.(f) <> None

let incref t f =
  if not (is_live t f) then invalid_arg "Phys_mem.incref: frame not live";
  t.refcounts.(f) <- t.refcounts.(f) + 1

let refcount t f = if is_live t f then t.refcounts.(f) else 0

let set_release_hook t f = t.on_release <- f

let free t f =
  if not (is_live t f) then invalid_arg "Phys_mem.free: frame not live";
  if t.refcounts.(f) > 1 then t.refcounts.(f) <- t.refcounts.(f) - 1
  else begin
    t.refcounts.(f) <- 0;
    t.frames.(f) <- None;
    t.free_list <- f :: t.free_list;
    t.live <- t.live - 1;
    Fc_obs.Metrics.incr t.frees;
    match t.on_release with Some hook -> hook f | None -> ()
  end

let live_frames t = t.live

let frame_of_addr a = a / page_size
let offset_of_addr a = a mod page_size
let addr_of_frame f = f * page_size

let frame_bytes t f =
  match if f >= 0 && f < Array.length t.frames then t.frames.(f) else None with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Phys_mem: frame %d not live" f)

let read_byte t hpa = Bytes.get_uint8 (frame_bytes t (frame_of_addr hpa)) (offset_of_addr hpa)

let write_byte t hpa v =
  let f = frame_of_addr hpa in
  Bytes.set_uint8 (frame_bytes t f) (offset_of_addr hpa) (v land 0xff);
  t.versions.(f) <- t.versions.(f) + 1

let version t f = if f >= 0 && f < Array.length t.versions then t.versions.(f) else 0

(* Hot path: callers (the software TLB) only hold [f] while its version
   matches a snapshot, which implies the frame is live and in range. *)
let touch t f = t.versions.(f) <- t.versions.(f) + 1

(* The bytes did not change, so a digest valid before the bump is valid
   after it. *)
let bump t f =
  let v = t.versions.(f) in
  t.versions.(f) <- v + 1;
  if t.digested.(f) = v then t.digested.(f) <- v + 1

let digest t f =
  let b = frame_bytes t f in
  if t.digested.(f) = t.versions.(f) then t.digests.(f)
  else begin
    let d = Digest.bytes b in
    t.digests.(f) <- d;
    t.digested.(f) <- t.versions.(f);
    t.hashed <- t.hashed + 1;
    d
  end

let set_digest t f d =
  ignore (frame_bytes t f : Bytes.t);
  t.digests.(f) <- d;
  t.digested.(f) <- t.versions.(f)

let digests_computed t = t.hashed

let read_u32 t hpa =
  let b i = read_byte t (hpa + i) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let write_u32 t hpa v =
  for i = 0 to 3 do
    write_byte t (hpa + i) ((v lsr (8 * i)) land 0xff)
  done

(* Bulk writes go one frame chunk at a time: the frame is looked up once,
   written with one [Bytes] operation, and its version advanced by the
   bytes written — exactly what a [write_byte] loop over the chunk leaves,
   including the partial state when a later frame turns out dead. *)
let chunk addr len = min len (page_size - offset_of_addr addr)

let wrote t f n = t.versions.(f) <- t.versions.(f) + n

let fill t ~addr ~len ~pattern =
  match pattern with
  | [] -> invalid_arg "Phys_mem.fill: empty pattern"
  | _ ->
      let p = Array.of_list (List.map (fun v -> v land 0xff) pattern) in
      let plen = Array.length p in
      let rec go i =
        if i < len then begin
          let a = addr + i in
          let n = chunk a (len - i) in
          let f = frame_of_addr a in
          let b = frame_bytes t f and off = offset_of_addr a in
          for k = 0 to n - 1 do
            Bytes.set_uint8 b (off + k) p.((i + k) mod plen)
          done;
          wrote t f n;
          go (i + n)
        end
      in
      go 0

let blit_bytes t ~src ~src_off ~dst ~len =
  let rec go i =
    if i < len then begin
      let a = dst + i in
      let n = chunk a (len - i) in
      let f = frame_of_addr a in
      Bytes.blit src (src_off + i) (frame_bytes t f) (offset_of_addr a) n;
      wrote t f n;
      go (i + n)
    end
  in
  go 0

let copy t ~src ~dst ~len =
  let rec go i =
    if i < len then begin
      let s = src + i and d = dst + i in
      let n = chunk d (chunk s (len - i)) in
      let from = frame_bytes t (frame_of_addr s) in
      let f = frame_of_addr d in
      Bytes.blit from (offset_of_addr s) (frame_bytes t f) (offset_of_addr d) n;
      wrote t f n;
      go (i + n)
    end
  in
  go 0

let frame_count t = t.next

let versions_snapshot t = Array.sub t.versions 0 t.next

(* ---------------- reclaim ---------------- *)

(* Every live frame's buffer goes back to the store and the frame dies;
   the pool keeps no store, so later frames never touch it again. *)
let reclaim t =
  Option.iter
    (fun s ->
      for f = 0 to t.next - 1 do
        Option.iter (fun b -> Stack.push b s) t.frames.(f)
      done)
    t.spare;
  t.spare <- None;
  Array.fill t.frames 0 (Array.length t.frames) None;
  t.live <- 0

(* ---------------- snapshot state ---------------- *)

type frozen_frame = {
  zl_frame : int;
  zl_refcount : int;
  zl_bytes : Bytes.t;
  zl_digest : Digest.t option;  (* of [zl_bytes], when known *)
}

type frozen = {
  z_next : int;
  z_free_list : int list;
  z_versions : int array;  (* length z_next: dead frames keep their
                              version so post-restore reallocation
                              continues the same version stream *)
  z_live : frozen_frame list;  (* ascending frame numbers *)
}

let export t =
  let live = ref [] in
  for f = t.next - 1 downto 0 do
    match t.frames.(f) with
    | None -> ()
    | Some b ->
        let zl_digest =
          if t.digested.(f) = t.versions.(f) then Some t.digests.(f) else None
        in
        live :=
          { zl_frame = f; zl_refcount = t.refcounts.(f); zl_bytes = Bytes.copy b;
            zl_digest }
          :: !live
  done;
  {
    z_next = t.next;
    z_free_list = t.free_list;
    z_versions = Array.sub t.versions 0 t.next;
    z_live = !live;
  }

let import t z =
  if t.next <> 0 || t.live <> 0 then
    invalid_arg "Phys_mem.import: pool not fresh";
  grow t z.z_next;
  t.next <- z.z_next;
  t.free_list <- z.z_free_list;
  Array.blit z.z_versions 0 t.versions 0 z.z_next;
  List.iter
    (fun l ->
      let f = l.zl_frame in
      if f < 0 || f >= z.z_next then
        invalid_arg "Phys_mem.import: frame out of range";
      if Bytes.length l.zl_bytes <> page_size then
        invalid_arg "Phys_mem.import: frame contents not one page";
      let b = buffer t in
      Bytes.blit l.zl_bytes 0 b 0 page_size;
      t.frames.(f) <- Some b;
      t.refcounts.(f) <- l.zl_refcount;
      Option.iter
        (fun d ->
          t.digests.(f) <- d;
          t.digested.(f) <- t.versions.(f))
        l.zl_digest;
      t.live <- t.live + 1)
    z.z_live
