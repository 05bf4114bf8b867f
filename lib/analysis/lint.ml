type rule =
  | Poly_compare
  | Poly_eq
  | Poly_membership
  | Struct_eq
  | Float_eq
  | Obj_magic
  | Print_stdout
  | Race_capture
  | Jobs_dependent_chunks
  | Domain_unsafe_global
  | Unbalanced_lock
  | Blocking_under_lock
  | Unused_export

let rule_name = function
  | Poly_compare -> "poly-compare"
  | Poly_eq -> "poly-eq"
  | Poly_membership -> "poly-membership"
  | Struct_eq -> "struct-eq"
  | Float_eq -> "float-eq"
  | Obj_magic -> "obj-magic"
  | Print_stdout -> "print-stdout"
  | Race_capture -> "race-capture"
  | Jobs_dependent_chunks -> "jobs-dependent-chunks"
  | Domain_unsafe_global -> "domain-unsafe-global"
  | Unbalanced_lock -> "unbalanced-lock"
  | Blocking_under_lock -> "blocking-under-lock"
  | Unused_export -> "unused-export"

type finding = { file : string; line : int; rule : rule; detail : string }

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The scope table: whether [rule] covers the source at [path].  A
   directory matches anywhere in the path, so a scope holds for a root
   given as [lib] and for one given as [_build/default/lib] alike. *)
let covers rule path =
  let under = List.exists (fun d -> contains ~sub:d path) in
  match rule with
  | Poly_compare | Poly_eq | Poly_membership | Struct_eq ->
      under
        [
          "lib/group"; "lib/core"; "lib/quantum"; "lib/linalg"; "lib/analysis";
          "lib/service";
        ]
  | Print_stdout -> not (under [ "bin/"; "bench/"; "test/"; "examples/" ])
  | Domain_unsafe_global -> under [ "lib/quantum"; "lib/core"; "lib/service" ]
  | Blocking_under_lock -> under [ "lib/service" ]
  | Float_eq | Obj_magic | Race_capture | Jobs_dependent_chunks | Unbalanced_lock
  | Unused_export ->
      true

(* ------------------------------------------------------------------ *)
(* Allowlist comments                                                 *)
(* ------------------------------------------------------------------ *)

(* Maps line number -> rule names allowed on that line (the token "all"
   allows everything).  Comments are not in the Parsetree, so this is a
   plain text scan of the source. *)
let allowed src =
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
  fun ~line rule ->
    let rule = rule_name rule in
    let matches l =
      match Hashtbl.find_opt tbl l with
      | None -> false
      | Some rules ->
          List.exists (String.equal "all") rules || List.exists (String.equal rule) rules
    in
    matches line || matches (line - 1)

(* ------------------------------------------------------------------ *)
(* Longident / application helpers                                    *)
(* ------------------------------------------------------------------ *)

let lident_to_string txt = String.concat "." (Longident.flatten txt)

(* Strip a [Stdlib.] qualifier so [Stdlib.ref] and [ref] compare
   equal. *)
let canonical name =
  if String.starts_with ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

let last_component name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

let prefix_of name =
  match String.rindex_opt name '.' with None -> "" | Some i -> String.sub name 0 i

(* [Mutex.<fn>], however qualified ([Stdlib.Mutex.lock] included). *)
let is_mutex fn name =
  String.equal name ("Mutex." ^ fn) || String.ends_with ~suffix:(".Mutex." ^ fn) name

(* ------------------------------------------------------------------ *)
(* Value semantics: poly-*, struct-eq, float-eq, obj-magic,           *)
(* print-stdout                                                       *)
(* ------------------------------------------------------------------ *)

let eq_operators = [ "="; "<>"; "=="; "!=" ]

let print_detail txt =
  match (txt : Longident.t) with
  | Lident s -> Some s
  | Ldot (Lident "Stdlib", s) when String.length s > 6 && String.starts_with ~prefix:"print_" s
    ->
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
  let name = canonical (lident_to_string txt) in
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

let value_semantics ~report =
  (* Checks on an identifier in function (applied) position: everything
     except the poly-eq-as-value rule, which only fires on a bare
     occurrence. *)
  let check_head txt loc args =
    if is_poly_compare txt then
      report loc Poly_compare
        (Printf.sprintf "polymorphic %s on structured data" (lident_to_string txt));
    if is_obj_magic txt then report loc Obj_magic "Obj.magic";
    if is_print txt then
      report loc Print_stdout
        (Printf.sprintf "%s writes to stdout from library code"
           (match print_detail txt with Some s -> s | None -> lident_to_string txt));
    (match membership_finding txt args with
    | Some detail -> report loc Poly_membership detail
    | None -> ());
    if is_eq_op txt && List.exists (fun (_, a) -> is_float_literal a) args then
      report loc Float_eq
        (Printf.sprintf "exact float comparison (%s) against a literal"
           (lident_to_string txt));
    if is_eq_op txt then begin
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
    if is_poly_compare txt then
      report loc Poly_compare
        (Printf.sprintf "polymorphic %s on group-element/word data" (lident_to_string txt));
    if is_eq_op txt then
      report loc Poly_eq
        (Printf.sprintf "polymorphic ( %s ) used as a function value" (lident_to_string txt));
    if is_obj_magic txt then report loc Obj_magic "Obj.magic";
    if is_print txt then
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
  { default with Ast_iterator.expr }

(* ------------------------------------------------------------------ *)
(* Concurrency: race-capture, jobs-dependent-chunks,                  *)
(* domain-unsafe-global, unbalanced-lock, blocking-under-lock         *)
(* ------------------------------------------------------------------ *)

(* Normalise [f @@ x] and [x |> f] into plain applications so the rule
   matchers see one shape.  Returns (canonical head name, head loc,
   args). *)
let rec app_parts (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Lident "@@"; _ }; _ }, [ (_, f); (_, x) ]) ->
      app_with_extra f x
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Lident "|>"; _ }; _ }, [ (_, x); (_, f) ]) ->
      app_with_extra f x
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
      Some (canonical (lident_to_string txt), loc, args)
  | _ -> None

and app_with_extra f x =
  match app_parts f with
  | Some (h, loc, args) -> Some (h, loc, args @ [ (Asttypes.Nolabel, x) ])
  | None -> (
      match f.Parsetree.pexp_desc with
      | Pexp_ident { txt; loc } ->
          Some (canonical (lident_to_string txt), loc, [ (Asttypes.Nolabel, x) ])
      | _ -> None)

(* All variable names bound by a pattern. *)
let pat_vars p =
  let acc = ref [] in
  let default = Ast_iterator.default_iterator in
  let pat it (p : Parsetree.pattern) =
    (match p.Parsetree.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
    | _ -> ());
    default.Ast_iterator.pat it p
  in
  let it = { default with Ast_iterator.pat } in
  it.Ast_iterator.pat it p;
  !acc

(* Does the subtree of [e] mention an identifier satisfying [pred], or
   a string constant satisfying [const_pred]? *)
let mentions ?(const_pred = fun _ -> false) pred (e : Parsetree.expression) =
  let found = ref false in
  let default = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Pexp_ident { txt; _ } -> if pred (canonical (lident_to_string txt)) then found := true
    | Pexp_constant (Pconst_string (s, _, _)) -> if const_pred s then found := true
    | _ -> ());
    default.Ast_iterator.expr it e
  in
  let it = { default with Ast_iterator.expr } in
  it.Ast_iterator.expr it e;
  !found

(* race-capture.  A closure handed to a Parallel kernel entry point may
   only write chunk-local state: its own [let]-bound refs and records,
   per-chunk slots (array elements — disjoint-index writes are the
   kernels' output contract), or [Atomic.t].  An assignment through a
   captured ref ([:=], [incr], [decr]) or a captured record's mutable
   field ([<-]) is a data race at jobs >= 2 and breaks the bit-for-bit
   determinism contract even when it happens to be "benign". *)

let kernel_entry_names = [ "parallel_for"; "map_chunks"; "run_chunked" ]

let is_kernel_entry name =
  List.exists (String.equal (last_component name)) kernel_entry_names
  &&
  let p = prefix_of name in
  p = "" || p = "Parallel" || String.ends_with ~suffix:".Parallel" p

(* The base identifier of an access path: [x], [x.f], [x.f.g] -> [x].
   Qualified paths ([M.x]) are module-level values, captured by
   definition. *)
type base = Local of string | Module_level of string | Unknown

let rec base_of (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_ident { txt = Lident s; _ } -> Local s
  | Pexp_ident { txt; _ } -> Module_level (lident_to_string txt)
  | Pexp_field (e', _) -> base_of e'
  | _ -> Unknown

let check_kernel_closure ~report closure =
  let default = Ast_iterator.default_iterator in
  let env = ref [] in
  let with_vars names f =
    let saved = !env in
    env := names @ saved;
    f ();
    env := saved
  in
  let check_ref_write loc lhs =
    match lhs.Parsetree.pexp_desc with
    | Pexp_ident { txt = Lident s; _ } when List.exists (String.equal s) !env -> ()
    | Pexp_ident { txt; _ } ->
        report loc Race_capture
          (Printf.sprintf
             "kernel closure assigns captured ref %s (use Atomic, an array slot indexed \
              by the chunk, or a map_chunks per-chunk result)"
             (lident_to_string txt))
    | _ -> ()
  in
  let rec expr it (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Pexp_fun (_, default_arg, p, body) ->
        Option.iter (expr it) default_arg;
        with_vars (pat_vars p) (fun () -> expr it body)
    | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> expr it vb.Parsetree.pvb_expr) vbs;
        with_vars
          (List.concat_map (fun vb -> pat_vars vb.Parsetree.pvb_pat) vbs)
          (fun () -> expr it body)
    | Pexp_for (p, e1, e2, _, body) ->
        expr it e1;
        expr it e2;
        with_vars (pat_vars p) (fun () -> expr it body)
    | Pexp_setfield (obj, { txt = fld; loc }, v) ->
        (match base_of obj with
        | Local s when List.exists (String.equal s) !env -> ()
        | Local s ->
            report loc Race_capture
              (Printf.sprintf
                 "kernel closure writes mutable field %s of captured value %s (chunk \
                  writes must stay chunk-local)"
                 (lident_to_string fld) s)
        | Module_level m ->
            report loc Race_capture
              (Printf.sprintf
                 "kernel closure writes mutable field %s of module-level value %s"
                 (lident_to_string fld) m)
        | Unknown -> ());
        expr it obj;
        expr it v
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        (match (canonical (lident_to_string txt), args) with
        | ":=", (_, lhs) :: _ -> check_ref_write loc lhs
        | ("incr" | "decr"), [ (_, lhs) ] -> check_ref_write loc lhs
        | _ -> ());
        List.iter (fun (_, a) -> expr it a) args
    | _ -> default.Ast_iterator.expr it e
  in
  let case it (c : Parsetree.case) =
    with_vars (pat_vars c.Parsetree.pc_lhs) (fun () ->
        Option.iter (expr it) c.Parsetree.pc_guard;
        expr it c.Parsetree.pc_rhs)
  in
  let it = { default with Ast_iterator.expr; case } in
  (* Start at the closure itself so its parameters enter the local
     environment. *)
  expr it closure

(* jobs-dependent-chunks.  parallel.mli's determinism contract: a
   [~chunks] count must be fixed by the workload geometry alone.  Any
   mention of the job count — the [jobs] accessor or the HSP_JOBS
   environment variable — inside the argument expression makes chunk
   boundaries (and therefore ordered reductions) depend on the machine
   the run happens to be on.

   [tainted] is the set of local names let-bound, in the enclosing
   function, to an expression that itself depends on the job count, so
   [let n = if Parallel.jobs () = 1 then 1 else 8 in ... ~chunks:n] is
   caught as well as the inline form. *)
let mentions_jobs ~tainted arg =
  mentions
    ~const_pred:(fun s -> String.equal s "HSP_JOBS")
    (fun name ->
      tainted name
      || String.equal (last_component name) "jobs"
      || String.equal (last_component name) "getenv"
      || String.equal (last_component name) "getenv_opt")
    arg

let rec bound_var (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> bound_var p
  | _ -> None

(* unbalanced-lock and blocking-under-lock. *)

let is_fun_protect_with_unlock (e : Parsetree.expression) =
  match app_parts e with
  | Some (h, _, args) when String.equal h "Fun.protect" ->
      List.exists
        (fun (label, a) ->
          match label with
          | Asttypes.Labelled "finally" ->
              mentions (fun n -> String.equal n "Mutex.unlock") a
          | _ -> false)
        args
  | _ -> false

(* Heads that run their function argument with the lock held. *)
let is_lock_wrapper head =
  match last_component head with
  | "locked" | "with_lock" -> true
  | _ -> is_mutex "protect" head

let blocking_unix =
  [
    "Unix.read"; "Unix.write"; "Unix.single_write"; "Unix.accept"; "Unix.connect";
    "Unix.select"; "Unix.sleep"; "Unix.sleepf"; "Unix.recv"; "Unix.recvfrom"; "Unix.send";
    "Unix.sendto"; "Thread.delay"; "Thread.join";
  ]

let is_blocking_head name =
  List.exists (String.equal name) blocking_unix
  || (contains ~sub:"Coset_state." name
     &&
     let l = last_component name in
     String.starts_with ~prefix:"prep" l || String.starts_with ~prefix:"sampler" l)
  || List.exists (String.equal (last_component name)) [ "read_frame"; "write_frame" ]
     && contains ~sub:"Protocol" name

(* domain-unsafe-global.  Module-level mutable state in the libraries
   that run under the domain pool or the service's threads must either
   be an [Atomic.t] or sit behind a module-local mutex (in which case
   the binding carries an allow comment naming that lock).  The scan
   covers the value of a top-level [let] — not lambda bodies, whose
   state is created per call. *)

let creation_heads =
  [
    "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create";
    "Bytes.create"; "Random.State.make"; "Random.get_state";
  ]

let scan_global_rhs ~report rhs =
  let default = Ast_iterator.default_iterator in
  let rec expr it (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> ()  (* created at call time *)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        let name = canonical (lident_to_string txt) in
        if List.exists (String.equal name) creation_heads then
          report loc Domain_unsafe_global
            (Printf.sprintf
               "module-level mutable state built with %s (use Atomic.t, or guard it \
                with a module-local mutex and add an allow comment naming the lock)"
               name);
        List.iter (fun (_, a) -> expr it a) args
    | _ -> default.Ast_iterator.expr it e
  in
  let it = { default with Ast_iterator.expr } in
  expr it rhs

let is_syntactic_function (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

let unbalanced =
  "Mutex.lock without exception-safe unlock (use Mutex.protect, or follow it immediately \
   with Fun.protect ~finally:(fun () -> Mutex.unlock ...))"

let concurrency ~report =
  let default = Ast_iterator.default_iterator in
  (* [lock_depth] > 0 while walking code that runs with a mutex held:
     the body argument of a lock wrapper, or the protected continuation
     of a sanctioned [Mutex.lock; Fun.protect ~finally:unlock] pair. *)
  let lock_depth = ref 0 in
  (* Innermost-first let-bound names in scope, each with whether its
     right-hand side depends on the job count. *)
  let jobs_env = ref [] in
  let tainted name =
    List.find_map (fun (n, t) -> if String.equal n name then Some t else None) !jobs_env
    |> Option.value ~default:false
  in
  let under_lock f =
    incr lock_depth;
    f ();
    decr lock_depth
  in
  let rec expr it (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Pexp_sequence (a, b) when is_lock_call a ->
        (* [Mutex.lock m; e]: sanctioned only when [e] immediately
           re-establishes exception safety via Fun.protect whose
           finally unlocks. *)
        walk_lock_args it a;
        if is_fun_protect_with_unlock b then under_lock (fun () -> expr it b)
        else begin
          report (lock_loc a) Unbalanced_lock unbalanced;
          expr it b
        end
    | _ when is_lock_call e ->
        report (lock_loc e) Unbalanced_lock unbalanced;
        walk_lock_args it e
    | Pexp_let (_, vbs, body) ->
        List.iter (fun (vb : Parsetree.value_binding) -> expr it vb.pvb_expr) vbs;
        let outer = !jobs_env in
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match bound_var vb.pvb_pat with
            | Some name -> jobs_env := (name, mentions_jobs ~tainted vb.pvb_expr) :: !jobs_env
            | None -> ())
          vbs;
        expr it body;
        jobs_env := outer
    | _ -> (
        match app_parts e with
        | Some (head, loc, args) ->
            (* race-capture: closures handed to kernel entry points *)
            if is_kernel_entry head then
              List.iter
                (fun (_, a) ->
                  match a.Parsetree.pexp_desc with
                  | Pexp_fun _ | Pexp_function _ -> check_kernel_closure ~report a
                  | _ -> ())
                args;
            (* jobs-dependent-chunks: any ~chunks argument *)
            List.iter
              (fun (label, a) ->
                match label with
                | Asttypes.Labelled "chunks" | Asttypes.Optional "chunks" ->
                    if mentions_jobs ~tainted a then
                      report a.Parsetree.pexp_loc Jobs_dependent_chunks
                        "~chunks depends on the job count (Parallel.jobs / HSP_JOBS): chunk \
                         geometry must be fixed by the workload alone (determinism contract, \
                         see parallel.mli)"
                | _ -> ())
              args;
            (* blocking-under-lock: calls made while a mutex is held *)
            if !lock_depth > 0 && is_blocking_head head then
              report loc Blocking_under_lock
                (Printf.sprintf
                   "%s called while a mutex is held (build/IO outside the lock, then \
                    publish under it)"
                   head);
            (* lock wrappers run their function arguments locked *)
            let locked = is_lock_wrapper head in
            List.iter
              (fun (_, a) ->
                match a.Parsetree.pexp_desc with
                | (Pexp_fun _ | Pexp_function _) when locked -> under_lock (fun () -> expr it a)
                | _ -> expr it a)
              args
        | None -> default.Ast_iterator.expr it e)
  and is_lock_call e =
    match app_parts e with Some (h, _, _) -> is_mutex "lock" h | None -> false
  and lock_loc e =
    match app_parts e with Some (_, loc, _) -> loc | None -> e.Parsetree.pexp_loc
  and walk_lock_args it e =
    match app_parts e with
    | Some (_, _, args) -> List.iter (fun (_, a) -> expr it a) args
    | None -> ()
  in
  let structure_item it (si : Parsetree.structure_item) =
    (match si.Parsetree.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            if not (is_syntactic_function vb.Parsetree.pvb_expr) then
              scan_global_rhs ~report vb.Parsetree.pvb_expr)
          vbs
    | _ -> ());
    default.Ast_iterator.structure_item it si
  in
  { default with Ast_iterator.expr; structure_item }

(* ------------------------------------------------------------------ *)
(* The pass                                                           *)
(* ------------------------------------------------------------------ *)

let lint_source ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  let structure =
    try Parse.implementation lexbuf
    with exn -> failwith (Printf.sprintf "%s: parse error (%s)" file (Printexc.to_string exn))
  in
  let allowed = allowed src in
  (* Each walker's findings in line order, value semantics first. *)
  let walk walker =
    let findings = ref [] in
    let report loc rule detail =
      let line = loc.Location.loc_start.Lexing.pos_lnum in
      if covers rule file && not (allowed ~line rule) then
        findings := { file; line; rule; detail } :: !findings
    in
    let it = walker ~report in
    it.Ast_iterator.structure it structure;
    List.sort (fun a b -> Int.compare a.line b.line) (List.rev !findings)
  in
  walk value_semantics @ walk concurrency

let rec files_with suffix path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> files_with suffix (Filename.concat path entry))
  else if Filename.check_suffix path suffix then [ path ]
  else []

let lint_file path = lint_source ~file:path (In_channel.with_open_bin path In_channel.input_all)

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line (rule_name f.rule) f.detail
