(* Hidden normal subgroups (Theorem 8): dihedral symmetry detection
   and a hidden normal subgroup of a permutation group.

     dune exec examples/hidden_symmetry.exe

   Scenario 1.  A periodic structure on an n-gon is invariant under
   rotation by d steps but under no finer rotation and no reflection:
   the invariance group is the normal subgroup <s^d> of D_n.  The
   "colouring oracle" is exactly a hiding function for it.  Theorem 8
   reconstructs the subgroup from a presentation of the factor group
   — no non-Abelian Fourier transform required.

   Scenario 2.  The Klein four-group V_4 hidden inside S_4 — the
   paper's "hidden normal subgroups of permutation groups in
   polynomial time". *)

open Groups
open Hsp

let pp_queries hiding =
  let c, q = Hiding.total_queries hiding in
  Printf.printf "  queries: %d quantum, %d classical\n" q c

let dihedral_demo rng n d =
  Printf.printf "D_%d (order %d), hidden rotation subgroup <s^%d>\n" n (2 * n) d;
  let instance = Instances.dihedral_rotation ~n ~d in
  let result = Normal_hsp.solve rng instance.Instances.group instance.Instances.hiding in
  Printf.printf "  factor group order: %d, relators used: %d\n"
    result.Normal_hsp.quotient_order result.Normal_hsp.relators_used;
  Printf.printf "  recovered generators:";
  List.iter
    (fun g -> Printf.printf " s^%d%s" g.Dihedral.rot (if g.Dihedral.flip then "t" else ""))
    result.Normal_hsp.generators;
  print_newline ();
  pp_queries instance.Instances.hiding;
  let ok =
    Group.subgroup_equal instance.Instances.group result.Normal_hsp.generators
      instance.Instances.hidden_gens
  in
  Printf.printf "  correct: %b\n\n" ok;
  if not ok then exit 1

let klein_demo rng =
  Printf.printf "S_4 (order 24), hidden Klein four-group V_4\n";
  let instance = Instances.perm_normal_klein () in
  let result = Normal_hsp.solve rng instance.Instances.group instance.Instances.hiding in
  Printf.printf "  factor group order: %d (S_4 / V_4 ~ S_3)\n" result.Normal_hsp.quotient_order;
  Printf.printf "  recovered generators (cycle notation):\n";
  List.iter
    (fun p ->
      let cycles = Perm.to_cycles p in
      let s =
        if cycles = [] then "()"
        else
          String.concat ""
            (List.map
               (fun c -> "(" ^ String.concat " " (List.map string_of_int c) ^ ")")
               cycles)
      in
      Printf.printf "    %s\n" s)
    result.Normal_hsp.generators;
  pp_queries instance.Instances.hiding;
  let ok =
    Group.subgroup_equal instance.Instances.group result.Normal_hsp.generators
      instance.Instances.hidden_gens
  in
  Printf.printf "  correct: %b\n" ok;
  if not ok then exit 1

let () =
  let rng = Random.State.make [| 7 |] in
  dihedral_demo rng 24 4;
  dihedral_demo rng 30 6;
  klein_demo rng
