(* Graph automorphism as a hidden subgroup problem.

     dune exec examples/graph_automorphism.exe

   The paper's introduction singles out graph isomorphism as the
   marquee special case of the non-Abelian HSP: for a graph Gamma on
   n vertices, the function  f(sigma) = sigma(Gamma)  on S_n is
   constant exactly on the cosets of Aut(Gamma), so finding the hidden
   subgroup finds the automorphism group.

   No polynomial quantum algorithm is known for this HSP in general —
   that is precisely the open problem the paper chips away at.  But
   Theorem 11 solves the HSP in *any* group in time polynomial in
   input + |G'|, and for the small symmetric groups a simulator can
   hold, |S_n'| = |A_n| is affordable.  So this example runs the
   paper's Theorem 11 machinery on honest graph-automorphism
   instances, and shows where the wall is: |A_n| = n!/2 grows
   super-exponentially, which is why Theorem 11 does not settle graph
   isomorphism. *)

open Groups
open Hsp

(* A graph on n vertices as an edge set; the hiding function tags a
   permutation by the image edge set, canonically sorted. *)
let graph_hiding n edges =
  let intern : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Hiding.of_fun (fun (sigma : Perm.elt) ->
      let image =
        List.sort compare
          (List.map
             (fun (u, v) ->
               let u' = sigma.(u) and v' = sigma.(v) in
               (min u' v', max u' v'))
             edges)
      in
      let key = String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) image) in
      ignore n;
      match Hashtbl.find_opt intern key with
      | Some k -> k
      | None ->
          let k = Hashtbl.length intern in
          Hashtbl.add intern key k;
          k)

let show_perm p =
  match Perm.to_cycles p with
  | [] -> "()"
  | cycles ->
      String.concat ""
        (List.map (fun c -> "(" ^ String.concat " " (List.map string_of_int c) ^ ")") cycles)

let run rng name n edges =
  Printf.printf "%s on %d vertices, edges:" name n;
  List.iter (fun (u, v) -> Printf.printf " %d-%d" u v) edges;
  print_newline ();
  let g = Perm.symmetric n in
  let hiding = graph_hiding n edges in
  (* ground truth by brute force *)
  let truth = Classical.brute_force g hiding in
  Hiding.reset hiding;
  (* Theorem 11: polynomial in input + |S_n'| = |A_n| *)
  let found = Small_commutator.solve_gens rng g hiding in
  let c, q = Hiding.total_queries hiding in
  Printf.printf "  Aut generators:";
  List.iter (fun p -> Printf.printf " %s" (show_perm p)) found;
  Printf.printf "\n  |Aut| = %d, queries: %d quantum + %d classical (|A_%d| = %d)\n"
    (List.length (Group.closure g found))
    q c n
    (List.length (Group.elements (Perm.alternating n)));
  let agrees = Group.subgroup_equal g found truth in
  Printf.printf "  agrees with brute force: %b\n\n" agrees;
  if not agrees then exit 1

let () =
  let rng = Random.State.make [| 1234 |] in
  (* path P_4: Aut = Z_2 (reverse) *)
  run rng "path P_4" 4 [ (0, 1); (1, 2); (2, 3) ];
  (* cycle C_4: Aut = D_4, order 8 *)
  run rng "cycle C_4" 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ];
  (* two disjoint edges: Aut = D_4 acting by swaps, order 8 *)
  run rng "2K_2" 4 [ (0, 1); (2, 3) ];
  (* star K_{1,3}: Aut = S_3 on the leaves, order 6 *)
  run rng "star K_1,3" 4 [ (0, 1); (0, 2); (0, 3) ];
  (* a 5-vertex graph with a single non-trivial symmetry *)
  run rng "near-rigid" 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 2) ];
  Printf.printf
    "The wall: Theorem 11 costs poly(|G'|) and |S_n'| = n!/2, so this approach\n\
     does not scale — exactly why graph isomorphism remains the open case of\n\
     the non-Abelian HSP that the paper highlights.\n"
