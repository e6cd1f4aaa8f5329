module Asm = Fc_isa.Asm

(* Each unit's functions sorted by address, newest unit first; the base
   kernel's array is the image's own. *)
type t = { mutable units : Asm.placed array list }

let create image = { units = [ Image.sorted_functions image ] }

let add_unit t (u : Asm.unit_image) =
  t.units <- Array.of_list u.functions :: t.units

(* The last function starting at or below [addr], if [addr] is inside
   it. *)
let find_in funcs addr =
  let rec go lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if funcs.(mid).Asm.addr <= addr then go (mid + 1) hi else go lo mid
  in
  let i = go 0 (Array.length funcs) in
  if i < 0 then None
  else
    let p = funcs.(i) in
    if addr < p.Asm.addr + p.Asm.size then Some (p.Asm.pname, addr - p.Asm.addr)
    else None

let find t addr = List.find_map (fun funcs -> find_in funcs addr) t.units

let render t addr =
  match find t addr with
  | Some (name, 0) -> Printf.sprintf "0x%x <%s+0x0>" addr name
  | Some (name, off) -> Printf.sprintf "0x%x <%s+0x%x>" addr name off
  | None -> Printf.sprintf "0x%x <UNKNOWN>" addr

let pp t ppf addr = Format.pp_print_string ppf (render t addr)
