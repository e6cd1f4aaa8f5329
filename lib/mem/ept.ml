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

(* Tag layout (VPID/PCID style), packed into one non-negative OCaml int:

     [ era : rest | view : view_bits | gen : gen_bits ]

   A cached translation is valid iff its packed tag equals the active
   tag — a single integer compare, no field extraction on the hot
   path.  The [era] field makes generation wraparound safe: when a
   view's generation would overflow [gen_bits], the era is bumped and
   every per-view generation resets to 0, so every tag minted in any
   earlier era mismatches forever. *)
let gen_bits = 20
let view_bits = 20
let max_gen = (1 lsl gen_bits) - 1
let max_view = (1 lsl view_bits) - 1

let pack ~era ~view ~gen =
  (((era lsl view_bits) lor view) lsl gen_bits) lor gen

type t = {
  dirs : (int, table) Hashtbl.t;
  mutable view : int;  (** active view id (0 = the full/original view) *)
  mutable era : int;  (** bumped on wraparound or full flush *)
  gens : (int, int) Hashtbl.t;  (** view id -> current generation *)
  mutable active_tag : int;  (** pack era/view/gen of the active view *)
  mutable flushes : int;  (** generation bumps + full flushes, ever *)
}

let create () : t =
  {
    dirs = Hashtbl.create 32;
    view = 0;
    era = 0;
    gens = Hashtbl.create 8;
    active_tag = pack ~era:0 ~view:0 ~gen:0;
    flushes = 0;
  }

let gen t ~view = Option.value ~default:0 (Hashtbl.find_opt t.gens view)
let tag t = t.active_tag
let flushes t = t.flushes
let retag t = t.active_tag <- pack ~era:t.era ~view:t.view ~gen:(gen t ~view:t.view)

let set_view t ~view =
  if view < 0 || view > max_view then invalid_arg "Ept.set_view: view id out of range";
  t.view <- view;
  retag t

let flush_all t =
  t.era <- t.era + 1;
  Hashtbl.reset t.gens;
  t.flushes <- t.flushes + 1;
  retag t

let bump_view t ~view =
  let g = gen t ~view in
  if g >= max_gen then flush_all t
  else begin
    Hashtbl.replace t.gens view (g + 1);
    t.flushes <- t.flushes + 1;
    if view = t.view then retag t
  end

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

type tags = {
  zt_view : int;
  zt_era : int;
  zt_flushes : int;
  zt_gens : (int * int) list;  (** (view id, generation), sorted by view *)
}

let freeze_tags t =
  {
    zt_view = t.view;
    zt_era = t.era;
    zt_flushes = t.flushes;
    zt_gens =
      List.sort compare
        (Hashtbl.fold (fun v g acc -> (v, g) :: acc) t.gens []);
  }

let restore_tags t z =
  t.view <- z.zt_view;
  t.era <- z.zt_era;
  t.flushes <- z.zt_flushes;
  Hashtbl.reset t.gens;
  List.iter (fun (v, g) -> Hashtbl.replace t.gens v g) z.zt_gens;
  retag t
