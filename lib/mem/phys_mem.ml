let page_size = 4096

type t = {
  mutable frames : Bytes.t option array;  (* None = never allocated / freed *)
  mutable versions : int array;           (* bumped on each write *)
  mutable refcounts : int array;          (* owners of a live frame *)
  mutable next : int;                     (* high-water mark *)
  mutable free_list : int list;
  mutable live : int;
  mutable on_release : (int -> unit) option;
      (* fired when a frame's last reference drops: caches keyed by frame
         number (the OS's per-frame lines) evict their entry instead of holding
         it until the frame number happens to be recycled *)
  allocs : Fc_obs.Metrics.counter;
  frees : Fc_obs.Metrics.counter;
}

let create ?metrics () =
  let m =
    match metrics with Some m -> m | None -> Fc_obs.Metrics.create ()
  in
  let t =
    { frames = Array.make 64 None; versions = Array.make 64 0;
      refcounts = Array.make 64 0; next = 0; free_list = []; live = 0;
      on_release = None;
      allocs = Fc_obs.Metrics.counter m ~subsystem:"mem" "frames_allocated";
      frees = Fc_obs.Metrics.counter m ~subsystem:"mem" "frames_freed" }
  in
  Fc_obs.Metrics.gauge m ~subsystem:"mem" "live_frames" (fun () -> t.live);
  t

let grow t want =
  if want >= Array.length t.frames then begin
    let cap = max (want + 1) (2 * Array.length t.frames) in
    let a = Array.make cap None in
    Array.blit t.frames 0 a 0 (Array.length t.frames);
    t.frames <- a;
    let v = Array.make cap 0 in
    Array.blit t.versions 0 v 0 (Array.length t.versions);
    t.versions <- v;
    let r = Array.make cap 0 in
    Array.blit t.refcounts 0 r 0 (Array.length t.refcounts);
    t.refcounts <- r
  end

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
  t.frames.(f) <- Some (Bytes.make page_size '\x00');
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

(* ---------------- snapshot state ---------------- *)

type frozen = {
  z_next : int;
  z_free_list : int list;
  z_versions : int array;  (* length z_next: dead frames keep their
                              version so post-restore reallocation
                              continues the same version stream *)
  z_live : (int * int * Bytes.t) list;  (* (frame, refcount, contents) *)
}

let export t =
  let live = ref [] in
  for f = t.next - 1 downto 0 do
    match t.frames.(f) with
    | None -> ()
    | Some b -> live := (f, t.refcounts.(f), Bytes.copy b) :: !live
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
    (fun (f, rc, b) ->
      if f < 0 || f >= z.z_next then
        invalid_arg "Phys_mem.import: frame out of range";
      t.frames.(f) <- Some (Bytes.copy b);
      t.refcounts.(f) <- rc;
      t.live <- t.live + 1)
    z.z_live
