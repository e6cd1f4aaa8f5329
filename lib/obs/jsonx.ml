type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- serialization ---------------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  (* NaN/inf have no JSON spelling: emit null so output stays valid *)
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* %g may print an integral float as "3": that is still a JSON number *)
    s

let to_string ?(pretty = false) t =
  let b = Buffer.create 256 in
  let indent n =
    if pretty then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * n) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s -> escape_string b s
    | List [] -> Buffer.add_string b "[]"
    | List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            indent (depth + 1);
            go (depth + 1) x)
          items;
        indent depth;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            indent (depth + 1);
            escape_string b k;
            Buffer.add_char b ':';
            if pretty then Buffer.add_char b ' ';
            go (depth + 1) v)
          fields;
        indent depth;
        Buffer.add_char b '}'
  in
  go 0 t;
  Buffer.contents b

(* ---------------- parsing ---------------- *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = pos := !pos + 1 in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else error ("expected " ^ word)
  in
  let utf8_of_code b code =
    (* encode a BMP code point; surrogates come in already combined *)
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    (* exactly four hex digits: int_of_string would also take '_' and
       raise on anything else *)
    if !pos + 4 > n then error "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> error "bad \\u escape: want four hex digits"
    in
    let v = ref 0 in
    for i = 0 to 3 do
      v := (!v lsl 4) lor digit s.[!pos + i]
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'
          | Some '\\' -> Buffer.add_char b '\\'
          | Some '/' -> Buffer.add_char b '/'
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'u' ->
              advance ();
              let hi = hex4 () in
              let code =
                if hi >= 0xD800 && hi <= 0xDBFF then begin
                  (* a high surrogate must be followed by a low one *)
                  if
                    not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
                  then error "unpaired high surrogate";
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    error "high surrogate not followed by a low one";
                  0x10000 + (((hi - 0xD800) lsl 10) lor (lo - 0xDC00))
                end
                else hi
              in
              utf8_of_code b code;
              pos := !pos - 1 (* compensate the advance below *)
          | Some c -> error (Printf.sprintf "bad escape '\\%c'" c)
          | None -> error "truncated escape");
          advance ();
          go ())
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if text = "" then error "expected number";
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text in
    if is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error ("bad number " ^ text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> error ("bad number " ^ text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields_loop ()
            | Some '}' -> advance ()
            | _ -> error "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> error "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "at offset %d: %s" at msg)

(* ---------------- accessors ---------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let path j keys =
  List.fold_left (fun acc k -> Option.bind acc (member k)) (Some j) keys

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None
