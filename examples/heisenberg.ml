(* Groups with small commutator subgroup (Theorem 11, Corollary 12):
   the full HSP — arbitrary, not necessarily normal, hidden subgroups
   — in extra-special p-groups.

     dune exec examples/heisenberg.exe

   The Heisenberg group H_p = 3x3 unitriangular matrices over GF(p)
   is extra-special: its commutator subgroup equals its center and
   has order p.  Theorem 11 solves the HSP in time polynomial in
   input + |G'| = input + p, by combining:
     - classical enumeration of G' (cheap: |G'| = p),
     - the hidden *normal* subgroup machinery on F(x) = f(xG'),
     - coset scans to pull generators of H back from HG'. *)

open Groups
open Hsp

let show_elt (x : Extraspecial.elt) =
  Printf.sprintf "(a=%s b=%s c=%d)"
    (String.concat "" (List.map string_of_int (Array.to_list x.Extraspecial.a)))
    (String.concat "" (List.map string_of_int (Array.to_list x.Extraspecial.b)))
    x.Extraspecial.c

let run rng p =
  Printf.printf "Heisenberg group H_%d, order %d\n" p (p * p * p);
  let instance = Instances.heisenberg_random rng ~p ~m:1 in
  let truth_order =
    List.length (Group.closure instance.Instances.group instance.Instances.hidden_gens)
  in
  Printf.printf "  hidden subgroup of order %d (random, possibly non-normal)\n" truth_order;
  let result = Small_commutator.solve rng instance.Instances.group instance.Instances.hiding in
  Printf.printf "  |G'| = %d\n" result.Small_commutator.commutator_order;
  Printf.printf "  recovered generators:\n";
  List.iter (fun x -> Printf.printf "    %s\n" (show_elt x)) result.Small_commutator.generators;
  let c, q = Hiding.total_queries instance.Instances.hiding in
  Printf.printf "  queries: %d quantum, %d classical (vs %d brute force)\n" q c (p * p * p);
  let ok =
    Group.subgroup_equal instance.Instances.group result.Small_commutator.generators
      instance.Instances.hidden_gens
  in
  Printf.printf "  correct: %b\n\n" ok;
  if not ok then exit 1

let () =
  let rng = Random.State.make [| 2026 |] in
  List.iter (run rng) [ 3; 5; 7 ];
  (* the two implementation routes agree: direct Abelian sampling on
     G/G' versus the paper's literal Theorem 8 detour *)
  let instance = Instances.heisenberg_random rng ~p:3 ~m:1 in
  let a = Small_commutator.solve rng instance.Instances.group instance.Instances.hiding in
  let b =
    Small_commutator.solve_via_theorem8 rng instance.Instances.group instance.Instances.hiding
  in
  let agree =
    Group.subgroup_equal instance.Instances.group a.Small_commutator.generators
      b.Small_commutator.generators
  in
  Printf.printf "Abelian-sampling route and Theorem-8 route agree: %b\n" agree;
  if not agree then exit 1
