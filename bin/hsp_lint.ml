(* Lint driver (see Analysis.Lint, Analysis.Race_check and
   Analysis.Unused_export for the rules).

     hsp_lint [DIR | FILE.ml] ...     defaults to: lib

   Walks the given roots for .ml files and applies each source pass's
   per-path rule configuration (value-semantics rules from Lint, the
   concurrency rules from Race_check), then runs the unused-export pass
   on every directory root: a val no consumer references, or an
   allowlisted one that nothing references, test/ included.  That pass
   reads dune's typed trees, so the driver runs from the build
   directory (_build/default) after `dune build @check`.  Prints every finding and exits 1 if there are
   any.  Run by `dune runtest` via the root dune rule. *)

let () =
  let roots = match List.tl (Array.to_list Sys.argv) with [] -> [ "lib" ] | r -> r in
  let ml_files =
    List.concat_map (Analysis.Lint.files_with ".ml") roots |> List.sort String.compare
  in
  let errors = ref 0 in
  let count = ref 0 in
  let check lint pp x =
    try
      let findings = lint x in
      count := !count + List.length findings;
      List.iter (fun fi -> Format.printf "%a@." pp fi) findings
    with Failure msg ->
      incr errors;
      Printf.eprintf "hsp_lint: %s\n" msg
  in
  List.iter
    (fun f ->
      check (fun f -> Analysis.Lint.lint_file f) Analysis.Lint.pp_finding f;
      check (fun f -> Analysis.Race_check.lint_file f) Analysis.Race_check.pp_finding f)
    ml_files;
  List.iter
    (fun root ->
      if Sys.is_directory root then
        check (fun lib -> Analysis.Unused_export.check ~lib) Analysis.Unused_export.pp_finding root)
    roots;
  Format.printf "hsp_lint: %d file(s) checked, %d finding(s)@." (List.length ml_files) !count;
  exit (if !count = 0 && !errors = 0 then 0 else 1)
