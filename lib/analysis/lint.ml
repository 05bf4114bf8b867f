type rule =
  | Poly_compare
  | Poly_eq
  | Poly_membership
  | Struct_eq
  | Float_eq
  | Obj_magic
  | Print_stdout

let rule_name = function
  | Poly_compare -> "poly-compare"
  | Poly_eq -> "poly-eq"
  | Poly_membership -> "poly-membership"
  | Struct_eq -> "struct-eq"
  | Float_eq -> "float-eq"
  | Obj_magic -> "obj-magic"
  | Print_stdout -> "print-stdout"

type finding = { file : string; line : int; rule : rule; detail : string }

type config = { check_poly : bool; allow_print : bool }

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let config_for_path path =
  {
    check_poly =
      List.exists
        (fun d -> contains ~sub:d path)
        [
          "lib/group"; "lib/core"; "lib/quantum"; "lib/linalg"; "lib/analysis";
          "lib/service";
        ];
    allow_print =
      List.exists
        (fun d -> contains ~sub:d path)
        [ "bin/"; "bench/"; "test/"; "examples/" ];
  }

(* ------------------------------------------------------------------ *)
(* Allowlist comments                                                 *)
(* ------------------------------------------------------------------ *)

(* Maps line number -> rule names allowed on that line (the token "all"
   allows everything).  Comments are not in the Parsetree, so this is a
   plain text scan of the source.  Shared with {!Race_check}, which has
   its own rule names but the same comment syntax. *)
type allowlist = (int, string list) Hashtbl.t

let allowlist src : allowlist =
  let tbl = Hashtbl.create 8 in
  let marker = "hsp-lint: allow" in
  List.iteri
    (fun i line ->
      match
        let n = String.length line and m = String.length marker in
        let rec find j =
          if j + m > n then None
          else if String.sub line j m = marker then Some (j + m)
          else find (j + 1)
        in
        find 0
      with
      | None -> ()
      | Some start ->
          let tail = String.sub line start (String.length line - start) in
          let words =
            String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) tail)
          in
          let rules =
            List.filter
              (fun w -> w <> "" && w <> "*)" && not (contains ~sub:"*" w))
              words
          in
          Hashtbl.replace tbl (i + 1) rules)
    (String.split_on_char '\n' src);
  tbl

let allow_suppressed tbl ~line ~rule =
  let matches l =
    match Hashtbl.find_opt tbl l with
    | None -> false
    | Some rules -> List.exists (String.equal "all") rules || List.exists (String.equal rule) rules
  in
  matches line || matches (line - 1)

let allowed tbl line rule = allow_suppressed tbl ~line ~rule:(rule_name rule)

(* ------------------------------------------------------------------ *)
(* The Parsetree pass                                                 *)
(* ------------------------------------------------------------------ *)

let eq_operators = [ "="; "<>"; "=="; "!=" ]

let print_detail txt =
  match (txt : Longident.t) with
  | Lident s -> Some s
  | Ldot (Lident "Stdlib", s) when String.length s > 6 && String.sub s 0 6 = "print_" ->
      Some ("Stdlib." ^ s)
  | Ldot (Lident "Printf", "printf") -> Some "Printf.printf"
  | Ldot (Lident "Format", "printf") -> Some "Format.printf"
  | Ldot (Lident "Format", "print_string") -> Some "Format.print_string"
  | Ldot (Lident "Format", "print_newline") -> Some "Format.print_newline"
  | _ -> None

let is_print txt =
  match (txt : Longident.t) with
  | Lident s | Ldot (Lident "Stdlib", s) ->
      List.exists (String.equal s)
        [
          "print_string"; "print_endline"; "print_newline"; "print_int"; "print_char";
          "print_float"; "print_bytes";
        ]
  | Ldot (Lident "Printf", "printf") | Ldot (Lident "Format", "printf")
  | Ldot (Lident "Format", "print_string")
  | Ldot (Lident "Format", "print_newline") ->
      true
  | _ -> false

let is_poly_compare txt =
  match (txt : Longident.t) with
  | Lident "compare"
  | Ldot (Lident "Stdlib", "compare")
  | Ldot (Lident "Pervasives", "compare")
  | Ldot (Lident "Hashtbl", "hash") ->
      true
  | _ -> false

let is_eq_op txt =
  match (txt : Longident.t) with
  | Lident s | Ldot (Lident "Stdlib", s) -> List.exists (String.equal s) eq_operators
  | _ -> false

let is_obj_magic txt =
  match (txt : Longident.t) with
  | Ldot (Lident "Obj", "magic") -> true
  | _ -> false

let lident_to_string txt =
  String.concat "." (Longident.flatten txt)

let is_float_literal (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident ("~-." | "~+."); _ }; _ },
        [ (_, { pexp_desc = Pexp_constant (Pconst_float _); _ }) ] ) ->
      true
  | _ -> false

(* The struct-eq heuristic: an applied [=]/[<>] whose two operands both
   project the same shape of data — the same record field on both sides
   ([a.dims = b.dims]) or the same locally-defined accessor applied on
   both sides ([dims a = dims b]).  Matching labels/heads is what makes
   the comparison almost certainly structural rather than scalar; known
   int-returning stdlib accessors are excluded to keep the rule quiet on
   length checks. *)
let scalar_heads =
  [
    "Array.length"; "List.length"; "String.length"; "Bytes.length"; "Hashtbl.length";
    "Array.get"; "String.get"; "Bytes.get"; "Char.code"; "int_of_char"; "String.unsafe_get";
    "Array.unsafe_get";
  ]

let field_label (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> Some (lident_to_string txt)
  | _ -> None

let is_symbolic name =
  name = ""
  ||
  match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> false | _ -> true

let apply_head (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _ :: _) -> (
      let name = lident_to_string txt in
      (* Operator applications ([!r], [a land b], [x * y]) and known
         int-returning accessors are scalar expressions, not data
         projections. *)
      match Longident.last txt with
      | last when is_symbolic last -> None
      | last when List.exists (String.equal last) [ "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr"; "mod"; "not" ] ->
          None
      | _ -> if List.exists (String.equal name) scalar_heads then None else Some name)
  | _ -> None

let structural_operands args =
  match args with
  | [ (_, l); (_, r) ] -> (
      match (field_label l, field_label r) with
      | Some fl, Some fr when String.equal fl fr ->
          Some (Printf.sprintf "field %s of both operands" fl)
      | _ -> (
          match (apply_head l, apply_head r) with
          | Some hl, Some hr when String.equal hl hr ->
              Some (Printf.sprintf "results of %s on both operands" hl)
          | _ -> None))
  | _ -> None

(* The int-array-element heuristic: an applied [=]/[<>] with an
   [a.(i)]-style element access on one side and a plain scalar
   expression (identifier, record field, or another element access) on
   the other.  In the directories under poly checking such arrays are
   int arrays in hot loops (oracle tags, sort permutations, index
   segments), where polymorphic equality is both an out-of-line call
   and a pitfall — the element type's equality ([Int.equal]) says what
   is meant and compiles to a compare instruction.  Literal operands
   are excluded ([tuple.(1) = 1] is monomorphised on the spot), as are
   compound expressions (too likely to be arithmetic the other rules
   already cover). *)
let is_array_get (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _ :: _) ->
      List.exists
        (String.equal (lident_to_string txt))
        [ "Array.get"; "Array.unsafe_get"; "Stdlib.Array.get"; "Stdlib.Array.unsafe_get" ]
  | _ -> false

let is_plain_scalar (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_ident _ | Pexp_field _ -> true
  | _ -> is_array_get e

let array_element_operands args =
  match args with
  | [ (_, l); (_, r) ] ->
      (is_array_get l && is_plain_scalar r) || (is_array_get r && is_plain_scalar l)
  | _ -> false

(* The poly-membership heuristic.  In the directories under poly
   checking, list/array containers hold group elements, words, [int
   array] tuples and oracle tags; the structural equality baked into
   [List.mem]/[List.assoc] (and into equality-predicate searches)
   silently diverges from the modules' own [equal] on non-canonical
   representatives, exactly like bare [compare].  Two shapes fire:

   - a membership head ([List.mem], [List.assoc], ...) whose key
     operand is not a literal constant (literal keys — [List.mem "all"
     rules] — are monomorphised on the spot and idiomatic);
   - a search combinator ([List.exists], [List.filter], ...) whose
     predicate is an equality section [(( = ) x)] or a lambda whose
     whole body is one [=]/[<>] application with no literal operand.

   The fix is the typed equality: [List.exists (Int.equal k) xs],
   [List.assoc] replaced by a [List.find_opt] with the element type's
   [equal], or the concrete [equal] inside the predicate. *)
let membership_heads =
  [
    "List.mem"; "List.memq"; "List.assoc"; "List.assoc_opt"; "List.mem_assoc";
    "List.remove_assoc"; "Array.mem"; "Array.memq";
  ]

let search_heads =
  [
    "List.exists"; "List.find"; "List.find_opt"; "List.find_index"; "List.for_all";
    "List.filter"; "List.partition"; "Array.exists"; "Array.for_all"; "Array.find_opt";
  ]

let head_in heads (txt : Longident.t) =
  let name = lident_to_string txt in
  let name =
    if String.length name > 7 && String.sub name 0 7 = "Stdlib." then
      String.sub name 7 (String.length name - 7)
    else name
  in
  if List.exists (String.equal name) heads then Some name else None

let is_literal (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true (* true/false/None/[] *)
  | _ -> false

(* [(( = ) x)] / [(( <> ) x)] with a non-literal [x]. *)
let is_eq_section (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, x) ]) ->
      is_eq_op txt && not (is_literal x)
  | _ -> false

(* [fun y -> a = b] (possibly through a tuple pattern) where neither
   operand is a literal — scalar guards like [fun d -> d <> 2] stay
   quiet. *)
let rec is_eq_lambda (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_fun (_, _, _, body) -> (
      match body.Parsetree.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, l); (_, r) ]) ->
          is_eq_op txt && (not (is_literal l)) && not (is_literal r)
      | _ -> is_eq_lambda body)
  | _ -> false

let membership_finding txt args =
  match head_in membership_heads txt with
  | Some name -> (
      match args with
      | (_, key) :: _ when not (is_literal key) ->
          Some
            (Printf.sprintf
               "polymorphic %s (use the element type's equal, e.g. List.exists (Int.equal k))"
               name)
      | _ -> None)
  | None -> (
      match (head_in search_heads txt, args) with
      | Some name, (_, pred) :: _ when is_eq_section pred || is_eq_lambda pred ->
          Some
            (Printf.sprintf
               "equality predicate under %s uses polymorphic ( = ) (use the element type's \
                equal)"
               name)
      | _ -> None)

let lint_source config ~file src =
  let findings = ref [] in
  let allow = allowlist src in
  let report loc rule detail =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    if not (allowed allow line rule) then
      findings := { file; line; rule; detail } :: !findings
  in
  (* Checks on an identifier in function (applied) position: everything
     except the poly-eq-as-value rule, which only fires on a bare
     occurrence. *)
  let check_head txt loc args =
    if config.check_poly && is_poly_compare txt then
      report loc Poly_compare
        (Printf.sprintf "polymorphic %s on structured data" (lident_to_string txt));
    if is_obj_magic txt then report loc Obj_magic "Obj.magic";
    if (not config.allow_print) && is_print txt then
      report loc Print_stdout
        (Printf.sprintf "%s writes to stdout from library code"
           (match print_detail txt with Some s -> s | None -> lident_to_string txt));
    (if config.check_poly then
       match membership_finding txt args with
       | Some detail -> report loc Poly_membership detail
       | None -> ());
    if is_eq_op txt && List.exists (fun (_, a) -> is_float_literal a) args then
      report loc Float_eq
        (Printf.sprintf "exact float comparison (%s) against a literal"
           (lident_to_string txt));
    if config.check_poly && is_eq_op txt then begin
      match structural_operands args with
      | Some what ->
          report loc Struct_eq
            (Printf.sprintf "polymorphic ( %s ) comparing %s (likely structural data)"
               (lident_to_string txt) what)
      | None ->
          if array_element_operands args then
            report loc Poly_compare
              (Printf.sprintf
                 "polymorphic ( %s ) on an array element (use the element type's equal, e.g. \
                  Int.equal)"
                 (lident_to_string txt))
    end
  in
  let check_bare txt loc =
    if config.check_poly && is_poly_compare txt then
      report loc Poly_compare
        (Printf.sprintf "polymorphic %s on group-element/word data" (lident_to_string txt));
    if config.check_poly && is_eq_op txt then
      report loc Poly_eq
        (Printf.sprintf "polymorphic ( %s ) used as a function value" (lident_to_string txt));
    if is_obj_magic txt then report loc Obj_magic "Obj.magic";
    if (not config.allow_print) && is_print txt then
      report loc Print_stdout
        (Printf.sprintf "%s writes to stdout from library code" (lident_to_string txt))
  in
  let default = Ast_iterator.default_iterator in
  let expr iterator (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        check_head txt loc args;
        List.iter (fun (_, a) -> iterator.Ast_iterator.expr iterator a) args
    | Pexp_ident { txt; loc } -> check_bare txt loc
    | _ -> default.Ast_iterator.expr iterator e
  in
  let iterator = { default with Ast_iterator.expr } in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  let structure =
    try Parse.implementation lexbuf
    with exn -> failwith (Printf.sprintf "%s: parse error (%s)" file (Printexc.to_string exn))
  in
  iterator.Ast_iterator.structure iterator structure;
  List.sort (fun a b -> Int.compare a.line b.line) (List.rev !findings)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec files_with suffix path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> files_with suffix (Filename.concat path entry))
  else if Filename.check_suffix path suffix then [ path ]
  else []

let lint_file ?config path =
  let config = match config with Some c -> c | None -> config_for_path path in
  lint_source config ~file:path (read_file path)

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line (rule_name f.rule) f.detail
