type export = { lib : string; unit : string; name : string; file : string; line : int }
type reference = { src : string; path : string list }

let unit_name modname =
  let n = String.length modname in
  let rec last_sep i =
    if i < 1 then None
    else if modname.[i] = '_' && modname.[i - 1] = '_' then Some (i + 1)
    else last_sep (i - 1)
  in
  match last_sep (n - 1) with
  | Some k -> String.sub modname k (n - k)
  | None -> modname

let lib_name modname =
  let n = String.length modname - String.length (unit_name modname) in
  if n = 0 then "" else String.sub modname 0 (n - 2)

(* ------------------------------------------------------------------ *)
(* References in a typed tree                                         *)
(* ------------------------------------------------------------------ *)

let refs_of_structure (str : Typedtree.structure) =
  (* Local module aliases ([module Zm = Numtheory.Zmatrix], and the
     same under [let module]), keyed by the ident's unique name, mapped
     to the path they stand for with earlier aliases already expanded. *)
  let aliases = Hashtbl.create 8 in
  let rec components (p : Path.t) =
    match p with
    | Pident id -> (
        match Hashtbl.find_opt aliases (Ident.unique_name id) with
        | Some expanded -> expanded
        | None -> [ Ident.name id ])
    | Pdot (p, s) -> components p @ [ s ]
    | Papply (p, _) | Pextra_ty (p, _) -> components p
  in
  let rec alias_target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some (components p)
    | Tmod_constraint (me, _, _, _) -> alias_target me
    | _ -> None
  in
  let bind id me =
    match (id, alias_target me) with
    | Some id, Some target -> Hashtbl.replace aliases (Ident.unique_name id) target
    | _ -> ()
  in
  let paths = ref [] in
  let default = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> paths := components p :: !paths
    | Texp_letmodule (id, _, _, me, _) -> bind id me
    | _ -> ());
    default.expr it e
  in
  let module_binding it (mb : Typedtree.module_binding) =
    bind mb.mb_id mb.mb_expr;
    default.module_binding it mb
  in
  let it = { default with expr; module_binding } in
  it.structure it str;
  List.rev_map (List.map unit_name) !paths

(* ------------------------------------------------------------------ *)
(* The rule                                                           *)
(* ------------------------------------------------------------------ *)

let consumer_dirs = [ "lib"; "bin"; "bench"; "examples" ]

let top_dir src =
  match String.index_opt src '/' with Some i -> String.sub src 0 i | None -> src

let same_unit (e : export) src =
  String.equal (Filename.remove_extension e.file) (Filename.remove_extension src)

let names_export (e : export) path =
  match path with
  | [ u; v ] -> String.equal u e.unit && String.equal v e.name
  | [ l; u; v ] -> String.equal l e.lib && String.equal u e.unit && String.equal v e.name
  | _ -> false

type finding = { export : export; allowlisted : bool }

let findings ~exports ~refs ~mli_source =
  (* [used]: referenced from a consumer directory; [referenced]: from
     anywhere, test/ included.  Both exclude the export's own unit. *)
  let used = Hashtbl.create 256 and referenced = Hashtbl.create 256 in
  let by_key = Hashtbl.create 256 in
  List.iter (fun (e : export) -> Hashtbl.replace by_key (e.unit, e.name) e) exports;
  List.iter
    (fun r ->
      match List.rev r.path with
      | v :: u :: _ -> (
          match Hashtbl.find_opt by_key (u, v) with
          | Some e when names_export e r.path && not (same_unit e r.src) ->
              Hashtbl.replace referenced (u, v) ();
              if List.exists (String.equal (top_dir r.src)) consumer_dirs then
                Hashtbl.replace used (u, v) ()
          | _ -> ())
      | _ -> ())
    refs;
  let allowlists = Hashtbl.create 64 in
  let allowed (e : export) =
    let tbl =
      match Hashtbl.find_opt allowlists e.file with
      | Some t -> t
      | None ->
          let t = Lint.allowlist (mli_source e.file) in
          Hashtbl.replace allowlists e.file t;
          t
    in
    Lint.allow_suppressed tbl ~line:e.line ~rule:"unused-export"
  in
  List.filter_map
    (fun (e : export) ->
      let key = (e.unit, e.name) in
      if Hashtbl.mem used key then None
      else if not (allowed e) then Some { export = e; allowlisted = false }
      else if Hashtbl.mem referenced key then None
      else Some { export = e; allowlisted = true })
    exports

(* ------------------------------------------------------------------ *)
(* Reading dune's build tree                                          *)
(* ------------------------------------------------------------------ *)

let exports_of_cmti path =
  let cmt = Cmt_format.read_cmt path in
  match (cmt.cmt_annots, cmt.cmt_sourcefile) with
  | Interface sg, Some file ->
      List.filter_map
        (fun (item : Typedtree.signature_item) ->
          match item.sig_desc with
          | Tsig_value vd ->
              Some
                {
                  lib = lib_name cmt.cmt_modname;
                  unit = unit_name cmt.cmt_modname;
                  name = vd.val_name.txt;
                  file;
                  line = vd.val_loc.loc_start.pos_lnum;
                }
          | _ -> None)
        sg.sig_items
  | _ -> []

let refs_of_cmt path =
  let cmt = Cmt_format.read_cmt path in
  match (cmt.cmt_annots, cmt.cmt_sourcefile) with
  | Implementation str, Some src -> List.map (fun path -> { src; path }) (refs_of_structure str)
  | _ -> []

let check ~lib =
  match Lint.files_with ".cmti" lib with
  | [] when Lint.files_with ".mli" lib <> [] ->
      failwith
        (lib
       ^ " has no .cmti files; unused-export reads dune's typed trees (run from \
          _build/default after dune build @check)")
  | cmtis ->
      let exports = List.concat_map exports_of_cmti cmtis in
      let refs_under d =
        if Sys.file_exists d then List.concat_map refs_of_cmt (Lint.files_with ".cmt" d) else []
      in
      let refs = List.concat_map refs_under ("test" :: consumer_dirs) in
      findings ~exports ~refs ~mli_source:Lint.read_file

let pp_finding fmt { export = e; allowlisted } =
  Format.fprintf fmt "%s:%d: [unused-export] %s.%s %s" e.file e.line e.unit e.name
    (if allowlisted then "is allowlisted but no other unit references it, test/ included"
     else "has no reference outside its own unit and test/")
