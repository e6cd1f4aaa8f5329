let entries_per_table = 1024
let dir_span_pages = entries_per_table

type table = int option array

let table_create () : table = Array.make entries_per_table None
let table_copy (t : table) : table = Array.copy t

(* Indices reaching [table_set]/[table_get] are produced by [slot_of_page]
   on non-negative page numbers, so they are always within
   [0, entries_per_table); the array's own bounds check is the only guard
   needed on this per-instruction-hot path. *)
let table_set (t : table) ~idx v = t.(idx) <- v
let table_get (t : table) ~idx = t.(idx)

(* The active view id is the tag cached translations carry (VPID
   style): an entry is valid iff its tag equals the active one.  View
   ids are never reused on a machine, so a retired view's tag can never
   be active again and retiring it invalidates nothing. *)
type t = {
  dirs : (int, table) Hashtbl.t;
  mutable view : int;  (** active view id (0 = the full/original view) *)
}

let create () : t = { dirs = Hashtbl.create 32; view = 0 }
let tag t = t.view

let set_view t ~view =
  if view < 0 then invalid_arg "Ept.set_view: negative view id";
  t.view <- view

let install_dir t ~dir v =
  match v with
  | Some table -> Hashtbl.replace t.dirs dir table
  | None -> Hashtbl.remove t.dirs dir

let get_dir t ~dir = Hashtbl.find_opt t.dirs dir
let dir_of_page p = p / dir_span_pages
let slot_of_page p = p mod dir_span_pages

let install_page t ~gpa_page ~hpa_frame =
  let dir = dir_of_page gpa_page in
  let table =
    match get_dir t ~dir with
    | Some tb -> tb
    | None ->
        let tb = table_create () in
        Hashtbl.replace t.dirs dir tb;
        tb
  in
  table_set table ~idx:(slot_of_page gpa_page) (Some hpa_frame)

let translate_page t gpa_page =
  match get_dir t ~dir:(dir_of_page gpa_page) with
  | None -> None
  | Some table -> table_get table ~idx:(slot_of_page gpa_page)

let translate t gpa =
  let page = gpa / Phys_mem.page_size and off = gpa mod Phys_mem.page_size in
  Option.map (fun f -> (f * Phys_mem.page_size) + off) (translate_page t page)

let dirs t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun dir tb acc -> (dir, tb) :: acc) t.dirs [])

let table_entries (t : table) =
  let acc = ref [] in
  for idx = entries_per_table - 1 downto 0 do
    match t.(idx) with None -> () | Some f -> acc := (idx, f) :: !acc
  done;
  !acc

let table_of_entries entries : table =
  let t = table_create () in
  List.iter
    (fun (idx, f) ->
      if idx < 0 || idx >= entries_per_table then
        invalid_arg "Ept.table_of_entries: slot out of range";
      t.(idx) <- Some f)
    entries;
  t
