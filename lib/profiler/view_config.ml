module Range_list = Fc_ranges.Range_list
module Segment = Fc_ranges.Segment
module Span = Fc_ranges.Span

type t = { app : string; ranges : Range_list.t }

let make ~app ranges = { app; ranges }

let union ~app configs =
  { app; ranges = List.fold_left (fun acc c -> Range_list.union acc c.ranges) Range_list.empty configs }

let size t = Range_list.size t.ranges
let len t = Range_list.len t.ranges
let similarity a b = Range_list.similarity a.ranges b.ranges

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# facechange kernel view\n";
  Buffer.add_string buf ("app " ^ t.app ^ "\n");
  List.iter
    (fun (seg, (s : Span.t)) ->
      Buffer.add_string buf
        (Printf.sprintf "%s 0x%x 0x%x\n" (Segment.to_string seg) s.Span.lo s.Span.hi))
    (Range_list.to_list t.ranges);
  Buffer.contents buf

let of_string text =
  let lines = String.split_on_char '\n' text in
  let app = ref None and spans = ref [] in
  let err = ref None in
  (* Malformed spans must be rejected here, not silently normalized away
     by Range_list's interval merging: a truncated or corrupted config
     that still parses would materialize a wrong view.  Spans are
     validated per segment: in file order, non-negative, and disjoint
     (adjacent is fine). *)
  let last : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if !err = None && line <> "" && not (String.length line > 0 && line.[0] = '#') then
        match String.split_on_char ' ' line with
        | [ "app"; name ] -> app := Some name
        | [ seg; lo; hi ] -> (
            match
              (Segment.of_string seg, int_of_string_opt lo, int_of_string_opt hi)
            with
            | segment, Some lo, Some hi -> (
                if lo < 0 || hi < 0 then
                  err :=
                    Some
                      (Printf.sprintf "line %d: negative span 0x%x 0x%x" (i + 1) lo hi)
                else if hi < lo then
                  err := Some (Printf.sprintf "line %d: bad range" (i + 1))
                else
                  match Hashtbl.find_opt last seg with
                  | Some (prev_lo, _) when lo < prev_lo ->
                      err :=
                        Some
                          (Printf.sprintf
                             "line %d: out-of-order span 0x%x (previous span starts at 0x%x)"
                             (i + 1) lo prev_lo)
                  | Some (_, prev_hi) when lo < prev_hi ->
                      err :=
                        Some
                          (Printf.sprintf
                             "line %d: overlapping span 0x%x (previous span ends at 0x%x)"
                             (i + 1) lo prev_hi)
                  | Some _ | None ->
                      Hashtbl.replace last seg (lo, hi);
                      spans := (segment, Span.make ~lo ~hi) :: !spans)
            | _ -> err := Some (Printf.sprintf "line %d: bad range" (i + 1))
            | exception Invalid_argument _ ->
                err := Some (Printf.sprintf "line %d: bad segment" (i + 1)))
        | _ -> err := Some (Printf.sprintf "line %d: unparseable" (i + 1)))
    lines;
  match (!err, !app) with
  | Some e, _ -> Error e
  | None, None -> Error "missing 'app' line"
  | None, Some app -> Ok { app; ranges = Range_list.of_list !spans }

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e
