module Asm = Fc_isa.Asm
module Block = Fc_isa.Block

(* Decoded superblock bodies by (start pc, MD5 of the page's bytes). *)
module Bodies = Map.Make (struct
  type t = int * Digest.t

  let compare (pc, d) (pc', d') =
    match Int.compare pc pc' with 0 -> String.compare d d' | c -> c
end)

type t = {
  unit_image : Asm.unit_image;
  by_name : (string, Asm.placed) Hashtbl.t;
  (* function starts sorted by address, for binary search *)
  starts : Asm.placed array;
  boot_modules : (string * Asm.unit_image) list;
      (* every catalog module, assembled once at its boot base, in load
         order; never mutated after [build], so guests booted on other
         domains share them without a lock *)
  bodies : Block.body Bodies.t Atomic.t;
      (* the one mutable part: append-only, and a body is a pure function
         of its key, so whichever domain publishes a key first publishes
         the same body any other would have *)
}

let next_module_base (u : Asm.unit_image) =
  let stop = u.Asm.base + Bytes.length u.Asm.code in
  ((stop + Layout.page_size - 1) / Layout.page_size * Layout.page_size)
  + Layout.page_size

let addr_of t name = Option.map (fun (p : Asm.placed) -> p.addr) (Hashtbl.find_opt t.by_name name)

let assemble_module_fns t ~base fns =
  let specs = List.map Kfunc.to_spec fns in
  Asm.assemble ~base ~resolve:(addr_of t) specs

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
          bodies = Atomic.make Bodies.empty;
        }
      in
      let rec boot acc base = function
        | [] -> Ok { t with boot_modules = List.rev acc }
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

let placed_at t addr =
  (* Binary search for the last start <= addr. *)
  let n = Array.length t.starts in
  let rec go lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if t.starts.(mid).Asm.addr <= addr then go (mid + 1) hi else go lo mid
  in
  let i = go 0 n in
  if i < 0 then None
  else
    let p = t.starts.(i) in
    if addr < p.Asm.addr + p.Asm.size then Some p else None

let functions t = t.unit_image.functions

let read_byte t gva =
  let off = gva - t.unit_image.base in
  if off >= 0 && off < Bytes.length t.unit_image.code then
    Some (Bytes.get_uint8 t.unit_image.code off)
  else None

let boot_modules t = t.boot_modules

let body t ~pc ~page decode =
  let key = (pc, page) in
  match Bodies.find_opt key (Atomic.get t.bodies) with
  | Some b -> Some b
  | None -> (
      match decode () with
      | None -> None
      | Some b ->
          (* publish by compare-and-set; a lost race means another guest
             published this key meanwhile, with an equal body *)
          let rec publish () =
            let m = Atomic.get t.bodies in
            match Bodies.find_opt key m with
            | Some b' -> b'
            | None ->
                if Atomic.compare_and_set t.bodies m (Bodies.add key b m) then b
                else publish ()
          in
          Some (publish ()))

let decoded_blocks t = Bodies.cardinal (Atomic.get t.bodies)

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
