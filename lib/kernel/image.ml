module Asm = Fc_isa.Asm
module Block = Fc_isa.Block
module Pcs = Map.Make (Int)
module Digests = Map.Make (String)

(* A view page's inputs: its original page's MD5 and the spans loaded
   onto it, as page offsets in ascending order. *)
module View_keys = Map.Make (struct
  type t = Digest.t * (int * int) list

  let compare = compare
end)

type page = Block.body Pcs.t Atomic.t (* one page content's bodies by start pc *)

type t = {
  unit_image : Asm.unit_image;
  by_name : (string, Asm.placed) Hashtbl.t;
  starts : Asm.placed array; (* [unit_image.functions], sorted by address *)
  boot_modules : (string * Asm.unit_image) list;
      (* every catalog module, assembled once at its boot base, in load
         order; never mutated after [build], so guests booted on other
         domains share them without a lock *)
  boot_digests : (int * Digest.t) list;
      (* each page boot copies code into, with the MD5 boot leaves it at *)
  (* The mutable part: append-only memos (each page's bodies hang off
     [pages]), each entry a pure function of its key, so whichever domain
     publishes a key first publishes the value any other would have. *)
  pages : page Digests.t Atomic.t; (* page MD5 -> the page's bodies *)
  view_pages : Digest.t View_keys.t Atomic.t; (* view page inputs -> its MD5 *)
}

let next_module_base (u : Asm.unit_image) =
  let stop = u.Asm.base + Bytes.length u.Asm.code in
  ((stop + Layout.page_size - 1) / Layout.page_size * Layout.page_size)
  + Layout.page_size

let addr_of t name = Option.map (fun (p : Asm.placed) -> p.addr) (Hashtbl.find_opt t.by_name name)

let assemble_module_fns t ~base fns =
  let specs = List.map Kfunc.to_spec fns in
  Asm.assemble ~base ~resolve:(addr_of t) specs

(* Each page the units' code lands in, as boot leaves it: a zeroed frame
   with the code copied in, hashed once. *)
let hash_boot_pages units =
  let pages = Hashtbl.create 256 in
  List.iter
    (fun (u : Asm.unit_image) ->
      let len = Bytes.length u.Asm.code in
      let rec copy off =
        if off < len then begin
          let gva = u.Asm.base + off in
          let page = gva - (gva mod Layout.page_size) in
          let buf =
            match Hashtbl.find_opt pages page with
            | Some b -> b
            | None ->
                let b = Bytes.make Layout.page_size '\x00' in
                Hashtbl.add pages page b;
                b
          in
          let n = min (len - off) (page + Layout.page_size - gva) in
          Bytes.blit u.Asm.code off buf (gva - page) n;
          copy (off + n)
        end
      in
      copy 0)
    units;
  List.sort compare
    (Hashtbl.fold (fun page buf acc -> (page, Digest.bytes buf) :: acc) pages [])

let build () =
  let specs = List.map Kfunc.to_spec Catalog.base_functions in
  match Asm.assemble ~base:Layout.text_base specs with
  | Error _ as e -> e
  | Ok unit_image ->
      let by_name = Hashtbl.create 1024 in
      List.iter
        (fun (p : Asm.placed) -> Hashtbl.replace by_name p.pname p)
        unit_image.functions;
      let starts = Array.of_list unit_image.functions in
      let t =
        {
          unit_image;
          by_name;
          starts;
          boot_modules = [];
          boot_digests = [];
          pages = Atomic.make Digests.empty;
          view_pages = Atomic.make View_keys.empty;
        }
      in
      let rec boot acc base = function
        | [] ->
            let boot_modules = List.rev acc in
            Ok
              {
                t with
                boot_modules;
                boot_digests = hash_boot_pages (unit_image :: List.map snd boot_modules);
              }
        | (name, fns) :: rest -> (
            match assemble_module_fns t ~base fns with
            | Error e -> Error (Printf.sprintf "module %s: %s" name e)
            | Ok u -> boot ((name, u) :: acc) (next_module_base u) rest)
      in
      boot [] Layout.module_area_base Catalog.module_functions

let build_exn () =
  match build () with
  | Ok t -> t
  | Error msg -> failwith ("Image.build: " ^ msg)

let unit_image t = t.unit_image
let text_base t = t.unit_image.base
let text_end t = t.unit_image.base + Bytes.length t.unit_image.code

let code_dirs t =
  let module Ept = Fc_mem.Ept in
  let dir_of gva = Ept.dir_of_page (Layout.page_of (Layout.gva_to_gpa gva)) in
  let acc = ref [] in
  let add d = if not (List.mem d !acc) then acc := d :: !acc in
  let rec sweep gva limit =
    if gva < limit then begin
      add (dir_of gva);
      sweep (gva + (Ept.dir_span_pages * Layout.page_size)) limit
    end
  in
  sweep (text_base t) (text_end t);
  add (dir_of (text_end t - 1));
  sweep Layout.module_area_base Layout.module_area_limit;
  add (dir_of (Layout.module_area_limit - 1));
  List.rev !acc

let addr_of_exn t name =
  match addr_of t name with
  | Some a -> a
  | None -> invalid_arg ("Image.addr_of_exn: unknown function " ^ name)

let functions t = t.unit_image.functions
let sorted_functions t = t.starts

let read_byte t gva =
  let off = gva - t.unit_image.base in
  if off >= 0 && off < Bytes.length t.unit_image.code then
    Some (Bytes.get_uint8 t.unit_image.code off)
  else None

let boot_modules t = t.boot_modules

let boot_digests t = t.boot_digests

(* Publish [v] under [key] in [cell] by compare-and-set, unless the key
   is there already, and return the value published.  A lost race means
   another guest published the key meanwhile, with an equal value. *)
let publish ~find ~add cell key v =
  let rec go () =
    let m = Atomic.get cell in
    match find key m with
    | Some v' -> v'
    | None -> if Atomic.compare_and_set cell m (add key v m) then v else go ()
  in
  go ()

let page t digest =
  match Digests.find_opt digest (Atomic.get t.pages) with
  | Some p -> p
  | None ->
      publish ~find:Digests.find_opt ~add:Digests.add t.pages digest
        (Atomic.make Pcs.empty)

let body page ~pc decode =
  match Pcs.find_opt pc (Atomic.get page) with
  | Some b -> Some b
  | None -> Option.map (publish ~find:Pcs.find_opt ~add:Pcs.add page pc) (decode ())

let view_page t ~original ~spans hash =
  let key = (original, spans) in
  match View_keys.find_opt key (Atomic.get t.view_pages) with
  | Some d -> d
  | None ->
      publish ~find:View_keys.find_opt ~add:View_keys.add t.view_pages key (hash ())

let decoded_pages t = Digests.cardinal (Atomic.get t.pages)

let decoded_blocks t =
  Digests.fold (fun _ p n -> n + Pcs.cardinal (Atomic.get p)) (Atomic.get t.pages) 0

let view_pages t = View_keys.cardinal (Atomic.get t.view_pages)

let assemble_module t ~name ~base =
  match List.assoc_opt name t.boot_modules with
  | Some u when u.Asm.base = base -> Ok u
  | Some _ | None -> (
      match List.assoc_opt name Catalog.module_functions with
      | None -> Error ("unknown module: " ^ name)
      | Some fns -> assemble_module_fns t ~base fns)

let false_prologues t =
  let read = read_byte t in
  let is_start =
    let h = Hashtbl.create 1024 in
    List.iter (fun (p : Asm.placed) -> Hashtbl.replace h p.Asm.addr ()) t.unit_image.functions;
    fun a -> Hashtbl.mem h a
  in
  let acc = ref [] in
  let a = ref (text_base t) in
  while !a < text_end t do
    if Fc_isa.Scan.is_prologue_at ~read !a && not (is_start !a) then acc := !a :: !acc;
    a := !a + 16
  done;
  List.rev !acc
