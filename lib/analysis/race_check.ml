(* Concurrency-safety lint: a compiler-libs Parsetree pass over the
   domain-pool kernels (Quantum.Parallel) and the threaded service
   layer.  See race_check.mli for the rule catalogue; the allowlist
   comment syntax is Lint's ([(* hsp-lint: allow <rule> *)]). *)

type rule =
  | Race_capture
  | Jobs_dependent_chunks
  | Domain_unsafe_global
  | Unbalanced_lock
  | Blocking_under_lock

let rule_name = function
  | Race_capture -> "race-capture"
  | Jobs_dependent_chunks -> "jobs-dependent-chunks"
  | Domain_unsafe_global -> "domain-unsafe-global"
  | Unbalanced_lock -> "unbalanced-lock"
  | Blocking_under_lock -> "blocking-under-lock"

type finding = { file : string; line : int; rule : rule; detail : string }

type config = {
  check_parallel : bool;
  check_globals : bool;
  check_locks : bool;
  check_blocking : bool;
}

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let config_for_path path =
  {
    (* The kernel-closure and chunk-geometry rules only fire on
       Parallel call sites, so they are safe to enforce everywhere. *)
    check_parallel = true;
    check_globals =
      List.exists
        (fun d -> contains ~sub:d path)
        [ "lib/quantum"; "lib/core"; "lib/service" ];
    check_locks = true;
    check_blocking = contains ~sub:"lib/service" path;
  }

(* ------------------------------------------------------------------ *)
(* Longident / application helpers                                    *)
(* ------------------------------------------------------------------ *)

let lident_to_string txt = String.concat "." (Longident.flatten txt)

(* Strip a [Stdlib.] qualifier so [Stdlib.ref] and [ref] compare
   equal. *)
let canonical name =
  if String.length name > 7 && String.sub name 0 7 = "Stdlib." then
    String.sub name 7 (String.length name - 7)
  else name

let last_component name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

let prefix_of name =
  match String.rindex_opt name '.' with None -> "" | Some i -> String.sub name 0 i

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  m <= n && String.sub s (n - m) m = suffix

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

(* ------------------------------------------------------------------ *)
(* Rule 1: race-capture                                               *)
(* ------------------------------------------------------------------ *)

(* A closure handed to a Parallel kernel entry point may only write
   chunk-local state: its own [let]-bound refs and records, per-chunk
   slots (array elements — disjoint-index writes are the kernels'
   output contract), or [Atomic.t].  An assignment through a captured
   ref ([:=], [incr], [decr]) or a captured record's mutable field
   ([<-]) is a data race at jobs >= 2 and breaks the bit-for-bit
   determinism contract even when it happens to be "benign". *)

let kernel_entry_names = [ "parallel_for"; "map_chunks"; "run_chunked" ]

let is_kernel_entry name =
  List.exists (String.equal (last_component name)) kernel_entry_names
  &&
  let p = prefix_of name in
  p = "" || p = "Parallel" || ends_with ~suffix:".Parallel" p

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

(* ------------------------------------------------------------------ *)
(* Rule 2: jobs-dependent-chunks                                      *)
(* ------------------------------------------------------------------ *)

(* parallel.mli's determinism contract: a [~chunks] count must be fixed
   by the workload geometry alone.  Any mention of the job count — the
   [jobs] accessor or the HSP_JOBS environment variable — inside the
   argument expression makes chunk boundaries (and therefore ordered
   reductions) depend on the machine the run happens to be on. *)

(* [tainted] is the set of local names let-bound, in the enclosing
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

(* ------------------------------------------------------------------ *)
(* Rules 4 + 5: unbalanced-lock, blocking-under-lock                  *)
(* ------------------------------------------------------------------ *)

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
let lock_wrapper_heads = [ "Mutex.protect"; "locked"; "with_lock" ]

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
     String.length l >= 4 && (String.sub l 0 4 = "prep" || (String.length l >= 7 && String.sub l 0 7 = "sampler"))
     )
  || List.exists (String.equal (last_component name)) [ "read_frame"; "write_frame" ]
     && contains ~sub:"Protocol" name

(* ------------------------------------------------------------------ *)
(* Rule 3: domain-unsafe-global                                       *)
(* ------------------------------------------------------------------ *)

(* Module-level mutable state in the libraries that run under the
   domain pool or the service's threads must either be an [Atomic.t] or
   sit behind a module-local mutex (in which case the binding carries
   an allow comment naming that lock).  The scan covers the value of a
   top-level [let] — not lambda bodies, whose state is created per
   call. *)

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

(* ------------------------------------------------------------------ *)
(* The pass                                                           *)
(* ------------------------------------------------------------------ *)

let lint_source config ~file src =
  let findings = ref [] in
  let allow = Lint.allowlist src in
  let report loc rule detail =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    if not (Lint.allow_suppressed allow ~line ~rule:(rule_name rule)) then
      findings := { file; line; rule; detail } :: !findings
  in
  let default = Ast_iterator.default_iterator in
  (* [lock_depth] > 0 while walking code that runs with a mutex held:
     the body argument of a lock wrapper, or the protected continuation
     of a sanctioned [Mutex.lock; Fun.protect ~finally:unlock] pair. *)
  let lock_depth = ref 0 in
  (* Innermost-first let-bound names in scope, each with whether its
     right-hand side depends on the job count (rule 2). *)
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
    (match e.Parsetree.pexp_desc with
    | Pexp_sequence (a, b) when is_lock_call a -> (
        (* [Mutex.lock m; e]: sanctioned only when [e] immediately
           re-establishes exception safety via Fun.protect whose
           finally unlocks. *)
        walk_lock_args it a;
        if is_fun_protect_with_unlock b then under_lock (fun () -> expr it b)
        else begin
          if config.check_locks then
            report (lock_loc a) Unbalanced_lock
              "Mutex.lock without exception-safe unlock (use Mutex.protect, or follow \
               it immediately with Fun.protect ~finally:(fun () -> Mutex.unlock ...))";
          expr it b
        end)
    | _ when is_lock_call e ->
        if config.check_locks then
          report (lock_loc e) Unbalanced_lock
            "Mutex.lock without exception-safe unlock (use Mutex.protect, or follow it \
             immediately with Fun.protect ~finally:(fun () -> Mutex.unlock ...))";
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
            if config.check_parallel && is_kernel_entry head then
              List.iter
                (fun (_, a) ->
                  match a.Parsetree.pexp_desc with
                  | Pexp_fun _ | Pexp_function _ ->
                      check_kernel_closure ~report a
                  | _ -> ())
                args;
            (* jobs-dependent-chunks: any ~chunks argument *)
            if config.check_parallel then
              List.iter
                (fun (label, a) ->
                  match label with
                  | Asttypes.Labelled "chunks" | Asttypes.Optional "chunks" ->
                      if mentions_jobs ~tainted a then
                        report a.Parsetree.pexp_loc Jobs_dependent_chunks
                          "~chunks depends on the job count (Parallel.jobs / HSP_JOBS): \
                           chunk geometry must be fixed by the workload alone \
                           (determinism contract, see parallel.mli)"
                  | _ -> ())
                args;
            (* blocking-under-lock: calls made while a mutex is held *)
            if config.check_blocking && !lock_depth > 0 && is_blocking_head head then
              report loc Blocking_under_lock
                (Printf.sprintf
                   "%s called while a mutex is held (build/IO outside the lock, then \
                    publish under it)"
                   head);
            (* lock wrappers: their function argument runs locked *)
            if
              List.exists
                (String.equal (last_component head))
                (List.map last_component lock_wrapper_heads)
               && (String.equal (last_component head) "locked"
                  || String.equal (last_component head) "with_lock"
                  || String.equal head "Mutex.protect"
                  || ends_with ~suffix:".Mutex.protect" head)
            then begin
              (* walk non-function args normally, function args under
                 the lock *)
              List.iter
                (fun (_, a) ->
                  match a.Parsetree.pexp_desc with
                  | Pexp_fun _ | Pexp_function _ -> under_lock (fun () -> expr it a)
                  | _ -> expr it a)
                args
            end
            else List.iter (fun (_, a) -> expr it a) args
        | None -> default.Ast_iterator.expr it e))
  and is_lock_call e =
    match app_parts e with
    | Some (h, _, _) -> String.equal h "Mutex.lock" || ends_with ~suffix:".Mutex.lock" h
    | None -> false
  and lock_loc e =
    match app_parts e with Some (_, loc, _) -> loc | None -> e.Parsetree.pexp_loc
  and walk_lock_args it e =
    match app_parts e with
    | Some (_, _, args) -> List.iter (fun (_, a) -> expr it a) args
    | None -> ()
  in
  let structure_item it (si : Parsetree.structure_item) =
    (match si.Parsetree.pstr_desc with
    | Pstr_value (_, vbs) when config.check_globals ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            if not (is_syntactic_function vb.Parsetree.pvb_expr) then
              scan_global_rhs ~report vb.Parsetree.pvb_expr)
          vbs
    | _ -> ());
    default.Ast_iterator.structure_item it si
  in
  let it = { default with Ast_iterator.expr; structure_item } in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  let structure =
    try Parse.implementation lexbuf
    with exn -> failwith (Printf.sprintf "%s: parse error (%s)" file (Printexc.to_string exn))
  in
  it.Ast_iterator.structure it structure;
  List.sort (fun a b -> Int.compare a.line b.line) (List.rev !findings)

let lint_file ?config path =
  let config = match config with Some c -> c | None -> config_for_path path in
  lint_source config ~file:path (Lint.read_file path)

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line (rule_name f.rule) f.detail
