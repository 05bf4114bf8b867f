(* Elementary Abelian normal 2-subgroups (Theorem 13): wreath products
   and the paper's Section 6 matrix groups.

     dune exec examples/wreath_products.exe

   Three classes, increasingly general:
     1. Z_2^k wr Z_2  — Rötteler–Beth's groups; |G/N| = 2.
     2. Z_2^n x| Z_m  — cyclic factor group (paper's fully polynomial
        case); the transversal comes from quantum order finding in
        G/N, so it has O(log |G/N|) elements.
     3. The concrete Section 6 matrix groups over GF(2): one type-(a)
        block matrix plus type-(b) translations. *)

open Groups
open Hsp

let verdict inst gens =
  let ok = Group.subgroup_equal inst.Instances.group gens inst.Instances.hidden_gens in
  let c, q = Hiding.total_queries inst.Instances.hiding in
  Printf.printf "  queries: %d quantum, %d classical | correct: %b\n\n" q c ok;
  if not ok then exit 1

let wreath_demo rng k =
  Printf.printf "Z_2^%d wr Z_2 (order %d), random hidden subgroup\n" k (1 lsl ((2 * k) + 1));
  let inst = Instances.wreath_random rng ~k in
  let res =
    Elem_abelian2.solve_general rng inst.Instances.group ~n_gens:(Wreath.base_gens k)
      inst.Instances.hiding
  in
  Printf.printf "  transversal size |V| = %d, |G/N| = %d\n" res.Elem_abelian2.transversal_size
    res.Elem_abelian2.quotient_order;
  verdict inst res.Elem_abelian2.generators;
  (* prior work: Rötteler–Beth's algorithm, as subsumed by Theorem 13 *)
  Hiding.reset inst.Instances.hiding;
  let rb = Roetteler_beth.solve rng ~k inst.Instances.hiding in
  let agrees = Group.subgroup_equal inst.Instances.group rb inst.Instances.hidden_gens in
  Printf.printf "  Rötteler–Beth specialisation agrees: %b\n\n" agrees;
  if not agrees then exit 1

let semidirect_demo rng n m =
  Printf.printf "Z_2^%d x| Z_%d (order %d), cyclic factor — fully polynomial case\n" n m
    ((1 lsl n) * m);
  let inst = Instances.semidirect_random rng ~n ~m in
  let res =
    Elem_abelian2.solve_cyclic rng inst.Instances.group ~n_gens:(Semidirect.base_gens ~n)
      inst.Instances.hiding
  in
  Printf.printf "  transversal from Sylow generators: |V| = %d (vs |G/N| = %d)\n"
    res.Elem_abelian2.transversal_size res.Elem_abelian2.quotient_order;
  verdict inst res.Elem_abelian2.generators

let section6_demo rng =
  Printf.printf "Section 6 matrix group over GF(2): type (a) + type (b) generators\n";
  let a = [| [| 0; 1 |]; [| 1; 1 |] |] in
  let vs = [ [| 1; 0 |]; [| 0; 1 |] ] in
  let g = Matrix_group.section6_group ~p:2 ~a vs in
  Printf.printf "  |G| = %d, solvable: %b\n" (Group.order g) (Group.is_solvable g);
  let n_gens = Group.normal_closure g (Matrix_group.section6_normal_gens ~p:2 ~k:2 vs) in
  let hidden = [ Matrix_group.section6_type_b ~p:2 ~k:2 [| 1; 1 |] ] in
  let inst = Instances.make ~name:"section6" g hidden in
  let res = Elem_abelian2.solve_cyclic rng g ~n_gens inst.Instances.hiding in
  verdict inst res.Elem_abelian2.generators

let () =
  let rng = Random.State.make [| 31337 |] in
  wreath_demo rng 3;
  wreath_demo rng 4;
  semidirect_demo rng 4 4;
  semidirect_demo rng 6 3;
  section6_demo rng
