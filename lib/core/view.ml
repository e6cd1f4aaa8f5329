module Hyp = Fc_hypervisor.Hypervisor
module Cost = Fc_hypervisor.Cost
module Os = Fc_machine.Os
module Layout = Fc_kernel.Layout
module Image = Fc_kernel.Image
module Ept = Fc_mem.Ept
module Phys = Fc_mem.Phys_mem
module Frame_cache = Fc_mem.Frame_cache
module Scan = Fc_isa.Scan
module Range_list = Fc_ranges.Range_list
module Segment = Fc_ranges.Segment
module Span = Fc_ranges.Span
module Obs = Fc_obs.Obs
module Metrics = Fc_obs.Metrics
module Event = Fc_obs.Event

type t = {
  hyp : Hyp.t;
  index : int;
  config : Fc_profiler.View_config.t;
  share : bool;
  tables : (int * Ept.table) list;
  page_frames : (int, int) Hashtbl.t; (* gpa_page -> backing frame *)
  pages_materialized : Metrics.counter; (* view.pages_materialized, shared *)
  cow_breaks_c : Metrics.counter; (* view.cow_breaks{app}, accumulates
                                     across unload/reload of the app *)
  mutable loaded_bytes : int;
  mutable cow_breaks : int;
  mutable destroyed : bool;
}

let index t = t.index
let config t = t.config
let app t = t.config.Fc_profiler.View_config.app
let tables t = t.tables
let dirs t = List.map fst t.tables
let private_page_count t = Hashtbl.length t.page_frames
let loaded_bytes t = t.loaded_bytes
let cow_breaks t = t.cow_breaks

let frame_count t =
  let seen = Hashtbl.create 64 in
  Hashtbl.iter (fun _ f -> Hashtbl.replace seen f ()) t.page_frames;
  Hashtbl.length seen

let shared_page_count t =
  let phys = Os.phys (Hyp.os t.hyp) in
  Hashtbl.fold
    (fun _ f n -> if Phys.refcount phys f > 1 then n + 1 else n)
    t.page_frames 0

let ud2_pattern = [ Fc_isa.Insn.ud2_first_byte; Fc_isa.Insn.ud2_second_byte ]

(* Find the view's table for a directory; the tables are created up front
   from copies of the original tables so data/unknown pages keep their
   real mapping (the paper "reuses any entries ... that point to kernel
   data"). *)
let table_for t dir = List.assoc_opt dir t.tables

let map_page t gpa_page frame =
  let os = Hyp.os t.hyp in
  (match table_for t (Ept.dir_of_page gpa_page) with
  | Some table ->
      let idx = Ept.slot_of_page gpa_page in
      let prev = Ept.table_get table ~idx in
      Ept.table_set table ~idx (Some frame);
      (* The table just mutated may already be installed in a vCPU's EPT
         (installed tables are shared by reference), and [table_set]
         moves no directory entry and no view id.  The
         invalidation is frame-targeted instead: every cached translation
         validates [Phys_mem.version] of its fill-time frame, so bumping
         the displaced frame's version kills exactly the entries that resolve
         through it — one page's worth, in whichever views cached it —
         and every other translation in this view survives untouched.  A
         previously empty slot needs nothing: translations are never
         cached negatively.  The displaced frame's bytes did not change,
         so [bump] keeps its digest valid. *)
      (match prev with
      | Some old when old <> frame -> Phys.bump (Os.phys os) old
      | Some _ | None -> ())
  | None -> invalid_arg "View: page outside view directories");
  Hashtbl.replace t.page_frames gpa_page frame

(* A page created on demand (a code-recovery write landing outside the
   materialized set) is about to be written, so it is allocated private
   in both modes. *)
let private_page t gpa_page =
  match Hashtbl.find_opt t.page_frames gpa_page with
  | Some frame -> frame
  | None ->
      let phys = Os.phys (Hyp.os t.hyp) in
      let frame = Phys.alloc phys in
      Phys.fill phys ~addr:(Phys.addr_of_frame frame) ~len:Phys.page_size
        ~pattern:ud2_pattern;
      map_page t gpa_page frame;
      Hyp.charge t.hyp Cost.view_page_init;
      frame

let covers t ~gva =
  Layout.is_kernel_address gva
  && Hashtbl.mem t.page_frames (Layout.page_of (Layout.gva_to_gpa gva))

(* Copy-on-write: the first write to a page backed by a shared frame
   privatizes it.  The fresh frame replaces the shared one in the view's
   own table (installed tables are shared by reference, so an active
   view's EPT mapping follows), and the shared frame loses one
   reference.  Deliberately charges {!Cost.cow_break} = 0 cycles —
   sharing must be behavior-invisible. *)
let writable_frame t gpa_page =
  let frame = private_page t gpa_page in
  let phys = Os.phys (Hyp.os t.hyp) in
  if Phys.refcount phys frame <= 1 then frame
  else begin
    let fresh = Phys.alloc phys in
    Phys.copy phys ~src:(Phys.addr_of_frame frame)
      ~dst:(Phys.addr_of_frame fresh) ~len:Phys.page_size;
    Phys.free phys frame;
    map_page t gpa_page fresh;
    t.cow_breaks <- t.cow_breaks + 1;
    Metrics.incr t.cow_breaks_c;
    Frame_cache.note_cow_break (Hyp.frame_cache t.hyp);
    (let obs = Hyp.obs t.hyp in
     if Obs.armed obs then Obs.emit obs (Event.Cow_break { frame; fresh }));
    Hyp.charge t.hyp Cost.cow_break;
    fresh
  end

let write_code t ~gva v =
  let gpa = Layout.gva_to_gpa gva in
  let frame = writable_frame t (Layout.page_of gpa) in
  Phys.write_byte (Os.phys (Hyp.os t.hyp))
    (Phys.addr_of_frame frame + (gpa mod Phys.page_size))
    v

let write_code_range t ~gva ~src ~src_off ~len =
  let phys = Os.phys (Hyp.os t.hyp) in
  let rec go i =
    if i < len then begin
      let gpa = Layout.gva_to_gpa (gva + i) in
      let off = gpa mod Phys.page_size in
      let n = min (len - i) (Phys.page_size - off) in
      let frame = writable_frame t (Layout.page_of gpa) in
      Phys.blit_bytes phys ~src ~src_off:(src_off + i)
        ~dst:(Phys.addr_of_frame frame + off) ~len:n;
      go (i + n)
    end
  in
  go 0

let read_code t ~gva =
  if not (Layout.is_kernel_address gva) then None
  else
    let gpa = Layout.gva_to_gpa gva in
    match Hashtbl.find_opt t.page_frames (Layout.page_of gpa) with
    | Some frame ->
        Some
          (Phys.read_byte (Os.phys (Hyp.os t.hyp))
             (Phys.addr_of_frame frame + (gpa mod Phys.page_size)))
    | None -> Hyp.read_original_code t.hyp gva

(* ---------------- materialization ---------------- *)

(* Record [lo, hi) of original kernel code as loaded, with the same byte
   and cycle accounting an in-place copy would have charged. *)
let note_range t loads ~lo ~hi =
  loads := Range_list.add_range !loads Segment.Base_kernel ~lo ~hi;
  t.loaded_bytes <- t.loaded_bytes + (hi - lo);
  Hyp.charge t.hyp (Cost.code_copy ~bytes:(hi - lo))

(* A profiled span, relaxed to whole containing functions when requested.
   [region_lo, region_hi) bounds the prologue scan (base kernel text, or
   one module's code). *)
let note_span t loads ~whole_function_load ~region_lo ~region_hi (s : Span.t) =
  if not whole_function_load then note_range t loads ~lo:s.Span.lo ~hi:s.Span.hi
  else begin
    let read = Hyp.read_original_code t.hyp in
    let rec go a =
      if a < s.Span.hi then
        match Scan.function_bounds ~read ~lo:region_lo ~hi:region_hi a with
        | Some (start, stop) ->
            note_range t loads ~lo:start ~hi:stop;
            go (max stop (a + 1))
        | None ->
            (* no enclosing prologue (shouldn't happen for profiled code):
               fall back to the raw span *)
            note_range t loads ~lo:a ~hi:s.Span.hi
    in
    go s.Span.lo
  end

(* One page of phase-aligned UD2 fill: the background every view page
   starts from.  Never written after initialization. *)
let ud2_page =
  Bytes.init Phys.page_size (fun i ->
      Char.chr
        (if i land 1 = 0 then Fc_isa.Insn.ud2_first_byte
         else Fc_isa.Insn.ud2_second_byte))

(* A view page's bytes are UD2 fill with the covered parts of the load
   set overlaid from the original page, so they depend only on the
   original page's bytes and those spans.  The image memoizes the page's
   MD5 under exactly that key, and the bytes are assembled in [buf] (one
   buffer per build, reused page after page) only when the memo misses
   or a frame must be filled.  The interval index makes the overlay
   O(log n) per page plus the covered bytes.  Both sharing modes charge
   exactly {!Cost.view_page_init}. *)
let materialize_page t loads buf gpa_page =
  let phys = Os.phys (Hyp.os t.hyp) in
  let gva_lo = Layout.gpa_to_gva (gpa_page * Phys.page_size) in
  let window = Span.make ~lo:gva_lo ~hi:(gva_lo + Phys.page_size) in
  let spans = Range_list.covered_spans loads Segment.Base_kernel window in
  let assembled = ref false in
  let contents () =
    if not !assembled then begin
      assembled := true;
      Bytes.blit ud2_page 0 buf 0 Phys.page_size;
      List.iter
        (fun (s : Span.t) ->
          Hyp.iter_original_code t.hyp ~lo:s.Span.lo ~hi:s.Span.hi
            (fun ~gva src off len -> Bytes.blit src off buf (gva - gva_lo) len))
        spans
    end;
    buf
  in
  let key =
    Image.view_page (Os.image (Hyp.os t.hyp))
      ~original:
        (match Hyp.original_frame t.hyp ~gpa_page with
        | Some f -> Phys.digest phys f
        | None -> "" (* an unmapped page loads no bytes *))
      ~spans:(List.map (fun (s : Span.t) -> (s.Span.lo - gva_lo, s.Span.hi - gva_lo)) spans)
      (fun () -> Digest.bytes (contents ()))
  in
  let fill_fresh () =
    let f = Phys.alloc phys in
    Phys.blit_bytes phys ~src:(contents ()) ~src_off:0
      ~dst:(Phys.addr_of_frame f) ~len:Phys.page_size;
    Phys.set_digest phys f key;
    f
  in
  let frame =
    if not t.share then fill_fresh ()
    else
      let cache = Hyp.frame_cache t.hyp in
      match Frame_cache.find cache ~label:(app t) key with
      | Some f -> f
      | None ->
          let f = fill_fresh () in
          Frame_cache.register cache key f;
          f
  in
  map_page t gpa_page frame;
  Metrics.incr t.pages_materialized;
  Hyp.charge t.hyp Cost.view_page_init

(* The one constructor behind [build] and [restore]: an empty view over
   [tables], its two counters registered by explicit lets in the order
   the snapshot's METR section lists them. *)
let make ~hyp ~index ~share ~tables config =
  let m = Obs.metrics (Hyp.obs hyp) in
  let cow_breaks_c =
    Metrics.family_counter
      (Metrics.counter_family m ~subsystem:"view" "cow_breaks")
      config.Fc_profiler.View_config.app
  in
  let pages_materialized = Metrics.counter m ~subsystem:"view" "pages_materialized" in
  {
    hyp;
    index;
    config;
    share;
    tables;
    page_frames = Hashtbl.create 256;
    pages_materialized;
    cow_breaks_c;
    loaded_bytes = 0;
    cow_breaks = 0;
    destroyed = false;
  }

let build ~hyp ?(whole_function_load = true) ?(share_frames = true) config =
  let os = Hyp.os hyp in
  let image = Os.image os in
  let text_lo = Image.text_base image and text_hi = Image.text_end image in
  (* every kernel-code directory, starting from a copy of its original
     table so data/unknown pages keep their real mapping *)
  let tables =
    List.map
      (fun dir ->
        match Hyp.original_table hyp ~dir with
        | Some table -> (dir, Ept.table_copy table)
        | None -> (dir, Ept.table_create ()))
      (Image.code_dirs image)
  in
  let t =
    make ~hyp ~index:(Os.fresh_view_id os) ~share:share_frames ~tables config
  in
  (* Pass 1: compute the load set — the exact whole-function relaxation
     walk, recorded (as absolute guest-virtual spans) in an interval
     index instead of written byte-by-byte.  Byte and cycle accounting is
     identical to an in-place loader, and identical in both sharing
     modes. *)
  let visible = Hyp.module_list hyp in
  let loads = ref Range_list.empty in
  let ranges = config.Fc_profiler.View_config.ranges in
  List.iter
    (fun seg ->
      match seg with
      | Segment.Base_kernel ->
          List.iter
            (fun s ->
              note_span t loads ~whole_function_load ~region_lo:text_lo
                ~region_hi:text_hi s)
            (Range_list.spans ranges seg)
      | Segment.Kernel_module name -> (
          (* locate the module's current base via the VMI module list;
             a module absent at runtime is skipped *)
          match List.find_opt (fun (n, _, _) -> String.equal n name) visible with
          | None -> ()
          | Some (_, base, size) ->
              List.iter
                (fun s ->
                  note_span t loads ~whole_function_load ~region_lo:base
                    ~region_hi:(base + size) (Span.shift s base))
                (Range_list.spans ranges seg)))
    (Range_list.segments ranges);
  let loads = !loads in
  (* Pass 2: materialize every base text page and the code pages of every
     VMI-visible module from their final contents. *)
  let buf = Bytes.create Phys.page_size in
  let lo_page = Layout.page_of (Layout.gva_to_gpa text_lo) in
  let hi_page = Layout.page_of (Layout.gva_to_gpa (text_hi - 1)) in
  for p = lo_page to hi_page do
    materialize_page t loads buf p
  done;
  List.iter
    (fun (_name, base, size) ->
      let lo_page = Layout.page_of (Layout.gva_to_gpa base) in
      let hi_page = Layout.page_of (Layout.gva_to_gpa (base + size - 1)) in
      for p = lo_page to hi_page do
        materialize_page t loads buf p
      done)
    visible;
  t

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    let phys = Os.phys (Hyp.os t.hyp) in
    Hashtbl.iter (fun _ frame -> Phys.free phys frame) t.page_frames;
    Hashtbl.reset t.page_frames
  end

(* ---------------- snapshot: freeze / restore ---------------- *)

type frozen = {
  zv_index : int;
  zv_config : string; (* View_config.to_string *)
  zv_share : bool;
  zv_tables : (int * int) list; (* dir -> pool table id, list order kept *)
  zv_page_frames : (int * int) list; (* gpa_page -> frame, sorted *)
  zv_loaded_bytes : int;
  zv_cow_breaks : int;
  zv_destroyed : bool;
}

let freeze t ~table_id =
  {
    zv_index = t.index;
    zv_config = Fc_profiler.View_config.to_string t.config;
    zv_share = t.share;
    zv_tables = List.map (fun (d, tbl) -> (d, table_id tbl)) t.tables;
    zv_page_frames =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.page_frames []);
    zv_loaded_bytes = t.loaded_bytes;
    zv_cow_breaks = t.cow_breaks;
    zv_destroyed = t.destroyed;
  }

let restore ~hyp ~table_of (z : frozen) =
  let config =
    match Fc_profiler.View_config.of_string z.zv_config with
    | Ok c -> c
    | Error e -> invalid_arg ("View.restore: bad embedded config: " ^ e)
  in
  let t =
    make ~hyp ~index:z.zv_index ~share:z.zv_share
      ~tables:(List.map (fun (d, id) -> (d, table_of id)) z.zv_tables)
      config
  in
  (* page frames carry their references through the restored pool, so no
     refcounts are taken here; [destroy] stays balanced *)
  List.iter (fun (p, f) -> Hashtbl.replace t.page_frames p f) z.zv_page_frames;
  t.loaded_bytes <- z.zv_loaded_bytes;
  t.cow_breaks <- z.zv_cow_breaks;
  t.destroyed <- z.zv_destroyed;
  t
