(* Minimal JSON for the wire protocol.

   The container ships no JSON library and the protocol needs only the
   scalar/array/object core, so this is a small recursive-descent
   parser plus a printer — both total over the value type, both
   allocation-light.  Integers are kept exact ([Int]) whenever the
   lexeme has no fraction/exponent; everything else becomes [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* The shortest of 15, 16 or 17 significant digits that reads back to
   the same float: a microsecond-rounded phase second prints as
   [9.858243], not [9.8582429999999999].  17 digits always round-trip.
   A form with no fraction or exponent (a large integral float, e.g.
   2^53) gets [.0], so it parses back as [Float], not [Int]. *)
let float_repr f =
  let s =
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f
  in
  if String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s then s ^ ".0" else s

let rec print_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (float_repr f)
  | String s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          print_into buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          print_into buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print_into buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "at byte %d: %s" cur.pos msg))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some c' when Char.equal c c' -> advance cur
  | Some c' -> fail cur (Printf.sprintf "expected %c, found %c" c c')
  | None -> fail cur (Printf.sprintf "expected %c, found end of input" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.equal (String.sub cur.src cur.pos n) word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "invalid literal (expected %s)" word)

let parse_string_body cur =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | None -> fail cur "unterminated escape"
        | Some c ->
            advance cur;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if cur.pos + 4 > String.length cur.src then fail cur "truncated \\u escape";
                let hex = String.sub cur.src cur.pos 4 in
                cur.pos <- cur.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> fail cur "bad \\u escape"
                in
                (* UTF-8 encode the BMP code point (surrogate pairs are
                   not needed by this protocol's ASCII payloads). *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> fail cur (Printf.sprintf "bad escape \\%c" c));
            go ())
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek cur with
    | Some c when is_num_char c ->
        advance cur;
        go ()
    | _ -> ()
  in
  go ();
  let lexeme = String.sub cur.src start (cur.pos - start) in
  let is_integral =
    not (String.exists (fun c -> match c with '.' | 'e' | 'E' -> true | _ -> false) lexeme)
  in
  if is_integral then
    match int_of_string_opt lexeme with
    | Some n -> Int n
    | None -> fail cur (Printf.sprintf "integer out of range: %s" lexeme)
  else
    match float_of_string_opt lexeme with
    | Some f -> Float f
    | None -> fail cur (Printf.sprintf "bad number: %s" lexeme)

(* Arrays and objects nest by recursion, so a frame of a million ['['
   would overflow the stack; past [max_depth] the parse fails instead. *)
let max_depth = 512

let rec parse_value cur depth =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' ->
      advance cur;
      String (parse_string_body cur)
  | Some ('[' | '{') when depth >= max_depth ->
      fail cur (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else
        let rec items acc =
          let v = parse_value cur (depth + 1) in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List (List.rev (v :: acc))
          | _ -> fail cur "expected , or ] in array"
        in
        items []
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else
        let field () =
          skip_ws cur;
          expect cur '"';
          let k = parse_string_body cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur (depth + 1) in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              fields (kv :: acc)
          | Some '}' ->
              advance cur;
              Obj (List.rev (kv :: acc))
          | _ -> fail cur "expected , or } in object"
        in
        fields []
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

let of_string s =
  try
    let cur = { src = s; pos = 0 } in
    let v = parse_value cur 0 in
    skip_ws cur;
    (match peek cur with
    | None -> ()
    | Some c -> fail cur (Printf.sprintf "trailing garbage starting with %c" c));
    Ok v
  with Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields ->
      List.find_map (fun (k, v) -> if String.equal k key then Some v else None) fields
  | _ -> None

let to_int_opt = function Int n -> Some n | _ -> None
let to_float_opt = function Float f -> Some f | Int n -> Some (float_of_int n) | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List items -> Some items | _ -> None
