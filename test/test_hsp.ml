(* Tests for the paper's algorithms: Abelian HSP (Thm 3 / Lemma 9),
   constructive membership (Thm 6), order finding in quotients
   (Thms 7/10), hidden normal subgroups (Thm 8), small commutator
   subgroup (Thm 11 / Cor 12), elementary Abelian normal 2-subgroup
   (Thm 13), and the baselines. *)

open Groups
open Hsp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let rng () = Random.State.make [| 0x5eed |]

let check_solution name inst gens =
  checkb name true (Group.subgroup_equal inst.Instances.group gens inst.Instances.hidden_gens)

(* ------------------------------------------------------------------ *)
(* Hiding functions                                                   *)
(* ------------------------------------------------------------------ *)

let test_hiding_constant_on_cosets () =
  let g = Dihedral.group 8 in
  let h_gens = [ Dihedral.rotation 8 4 ] in
  let hiding = Hiding.of_subgroup g h_gens in
  let h_elems = Group.closure g h_gens in
  let r = rng () in
  for _ = 1 to 50 do
    let x = Group.random_element r g in
    let h = List.nth h_elems (Random.State.int r (List.length h_elems)) in
    checki "f(xh) = f(x)" (hiding.Hiding.raw x) (hiding.Hiding.raw (g.Group.mul x h))
  done

let test_hiding_distinct_across_cosets () =
  let g = Dihedral.group 8 in
  let h_gens = [ Dihedral.rotation 8 4 ] in
  let hiding = Hiding.of_subgroup g h_gens in
  let h_set = Group.closure_set g (Group.closure g h_gens) in
  let r = rng () in
  for _ = 1 to 50 do
    let x = Group.random_element r g and y = Group.random_element r g in
    let same_coset = Group.mem g h_set (g.Group.mul (g.Group.inv x) y) in
    checkb "tags agree iff same coset" same_coset
      (hiding.Hiding.raw x = hiding.Hiding.raw y)
  done

let test_hiding_counters () =
  let g = Cyclic.product [| 6 |] in
  let hiding = Hiding.of_subgroup g [ [| 3 |] ] in
  ignore (Hiding.eval hiding [| 2 |]);
  ignore (Hiding.eval hiding [| 4 |]);
  let c, q = Hiding.total_queries hiding in
  checki "classical" 2 c;
  checki "quantum" 0 q;
  Hiding.reset hiding;
  checki "reset" 0 (fst (Hiding.total_queries hiding))


(* ------------------------------------------------------------------ *)
(* Abelian HSP                                                        *)
(* ------------------------------------------------------------------ *)

let test_simon_all_masks () =
  let r = rng () in
  for n = 2 to 6 do
    for _ = 1 to 3 do
      let mask = Array.init n (fun _ -> Random.State.int r 2) in
      if Array.exists (fun b -> b = 1) mask then begin
        let inst = Instances.simon ~n ~mask in
        let gens = Abelian_hsp.solve r inst.Instances.group inst.Instances.hiding in
        check_solution (Printf.sprintf "simon n=%d" n) inst gens
      end
    done
  done

let test_simon_trivial_subgroup () =
  (* identity mask = trivial hidden subgroup: f injective *)
  let r = rng () in
  let g = Cyclic.boolean_cube 4 in
  let inst = Instances.make ~name:"trivial" g [] in
  let gens = Abelian_hsp.solve r g inst.Instances.hiding in
  check_solution "trivial subgroup" inst gens;
  checki "no generators needed" 0 (List.length (Group.closure g gens) - 1)

let test_simon_full_group () =
  let r = rng () in
  let g = Cyclic.boolean_cube 4 in
  let all = Group.elements g in
  let inst = Instances.make ~name:"full" g all in
  let gens = Abelian_hsp.solve r g inst.Instances.hiding in
  check_solution "full group" inst gens

let test_abelian_mixed_orders () =
  let r = rng () in
  List.iter
    (fun dims ->
      for _ = 1 to 3 do
        let inst = Instances.abelian_random r ~dims in
        let gens = Abelian_hsp.solve r inst.Instances.group inst.Instances.hiding in
        check_solution "abelian random" inst gens
      done)
    [ [| 8 |]; [| 4; 6 |]; [| 9; 3 |]; [| 5; 5 |]; [| 2; 3; 4 |] ]

let test_abelian_query_count_logarithmic () =
  (* quantum queries grow ~ log |G|, far below |G| *)
  let r = rng () in
  List.iter
    (fun n ->
      let mask = Array.init n (fun i -> if i = 0 then 1 else 0) in
      let inst = Instances.simon ~n ~mask in
      let _ = Abelian_hsp.solve r inst.Instances.group inst.Instances.hiding in
      let _, q = Hiding.total_queries inst.Instances.hiding in
      checkb
        (Printf.sprintf "n=%d queries %d below group order" n q)
        true
        (q < Group.order inst.Instances.group || Group.order inst.Instances.group < 32))
    [ 5; 6; 7; 8 ]

let test_abelian_hsp_on_subgroup () =
  let r = rng () in
  let g = Wreath.group 2 in
  (* hidden subgroup intersecting the base *)
  let h_gens = [ Wreath.of_tuple 2 [| 1; 0; 1; 0; 0 |] ] in
  let inst = Instances.make ~name:"cap" g h_gens in
  let cap = Abelian_hsp.solve_on_subgroup r g (Wreath.base_gens 2) inst.Instances.hiding in
  (* H is inside N here, so H ∩ N = H *)
  checkb "cap = H" true (Group.subgroup_equal g cap h_gens)

(* ------------------------------------------------------------------ *)
(* Membership (Theorem 6)                                             *)
(* ------------------------------------------------------------------ *)

let test_membership_in_cyclic_product () =
  let r = rng () in
  let g = Cyclic.product [| 12; 18 |] in
  let queries = Quantum.Query.create () in
  let hs = [ [| 2; 3 |]; [| 0; 6 |] ] in
  (* positive case *)
  (match Membership.express r g ~hs [| 4; 0 |] ~order_bound:36 ~queries with
  | Some w ->
      let built =
        List.fold_left2
          (fun acc h e -> g.Group.mul acc (Group.pow g h e))
          g.Group.id hs (Array.to_list w.Membership.exponents)
      in
      checkb "expression valid" true (g.Group.equal built [| 4; 0 |])
  | None -> Alcotest.fail "member reported absent");
  (* negative case: [1;0] has order 12; <hs> misses it *)
  checkb "non-member" true
    (Membership.express r g ~hs [| 1; 0 |] ~order_bound:36 ~queries = None)

let test_membership_identity () =
  let r = rng () in
  let g = Cyclic.product [| 10 |] in
  let queries = Quantum.Query.create () in
  match Membership.express r g ~hs:[ [| 2 |] ] [| 0 |] ~order_bound:10 ~queries with
  | Some w -> checkb "trivial exponents work" true (w.Membership.exponents = [| 0 |])
  | None -> Alcotest.fail "identity always expressible"

let test_membership_in_nonabelian_ambient () =
  (* commuting elements inside S_6: two disjoint cycles *)
  let r = rng () in
  let g = Perm.symmetric 6 in
  let a = Perm.of_cycles 6 [ [ 0; 1; 2 ] ] and b = Perm.of_cycles 6 [ [ 3; 4 ] ] in
  let target = Perm.compose a (Perm.compose a b) in
  let queries = Quantum.Query.create () in
  (match Membership.express r g ~hs:[ a; b ] target ~order_bound:6 ~queries with
  | Some w ->
      let built =
        List.fold_left2
          (fun acc h e -> g.Group.mul acc (Group.pow g h e))
          g.Group.id [ a; b ] (Array.to_list w.Membership.exponents)
      in
      checkb "valid in S_6" true (g.Group.equal built target)
  | None -> Alcotest.fail "member reported absent");
  (* rejects non-commuting input *)
  Alcotest.check_raises "noncommuting"
    (Invalid_argument "Membership.express: elements do not pairwise commute") (fun () ->
      ignore
        (Membership.express r g
           ~hs:[ Perm.of_cycles 6 [ [ 0; 1 ] ]; Perm.of_cycles 6 [ [ 1; 2 ] ] ]
           (Perm.identity 6) ~order_bound:6 ~queries))

let test_membership_random () =
  let r = rng () in
  (* exponent 12, so the Fourier register stays small: the simulator
     materialises Z_{s1} x Z_{s2} x Z_s *)
  let g = Cyclic.product [| 6; 4 |] in
  let queries = Quantum.Query.create () in
  for _ = 1 to 5 do
    let h1 = Group.random_element r g and h2 = Group.random_element r g in
    let e1 = Random.State.int r 10 and e2 = Random.State.int r 10 in
    let target = g.Group.mul (Group.pow g h1 e1) (Group.pow g h2 e2) in
    match Membership.express r g ~hs:[ h1; h2 ] target ~order_bound:12 ~queries with
    | Some w ->
        let built =
          List.fold_left2
            (fun acc h e -> g.Group.mul acc (Group.pow g h e))
            g.Group.id [ h1; h2 ] (Array.to_list w.Membership.exponents)
        in
        checkb "valid expression" true (g.Group.equal built target)
    | None -> Alcotest.fail "constructed member reported absent"
  done

(* ------------------------------------------------------------------ *)
(* Order finding (Theorems 6/7/10 prerequisites)                      *)
(* ------------------------------------------------------------------ *)

let test_order_in_group () =
  let r = rng () in
  let g = Dihedral.group 15 in
  let queries = Quantum.Query.create () in
  checki "rotation order" 15 (Order_finding.order r g (Dihedral.rotation 15 1) ~bound:30 ~queries);
  checki "power order" 5 (Order_finding.order r g (Dihedral.rotation 15 6) ~bound:30 ~queries);
  checki "reflection order" 2 (Order_finding.order r g (Dihedral.reflection 15 3) ~bound:30 ~queries);
  checki "identity order" 1 (Order_finding.order r g g.Group.id ~bound:30 ~queries)

let test_order_mod_hidden () =
  (* order of s in D_12 / <s^4> is 4 *)
  let r = rng () in
  let g = Dihedral.group 12 in
  let hiding = Hiding.of_subgroup g [ Dihedral.rotation 12 4 ] in
  checki "order mod hidden" 4
    (Order_finding.order_mod_hidden r g hiding (Dihedral.rotation 12 1) ~bound:24);
  checkb "quantum queries charged" true (snd (Hiding.total_queries hiding) > 0)

let test_order_mod_generated () =
  let r = rng () in
  let g = Semidirect.group ~action:(Semidirect.cyclic_action 4) ~m:4 in
  let queries = Quantum.Query.create () in
  let top = Semidirect.top_gen ~n:4 in
  checki "top order in quotient" 4
    (Order_finding.order_mod_generated r g (Semidirect.base_gens ~n:4) top ~bound:64 ~queries);
  (* base elements are trivial in the quotient *)
  checki "base trivial" 1
    (Order_finding.order_mod_generated r g (Semidirect.base_gens ~n:4)
       (List.hd (Semidirect.base_gens ~n:4))
       ~bound:64 ~queries)

let test_order_mod_generated_watrous () =
  (* the literal Theorem-10 implementation (coset-superposition
     states) agrees with the coset-label implementation on every
     element of Z_3^3 x| Z_3 modulo its base *)
  let r = rng () in
  let g = Semidirect.group ~action:(Semidirect.cyclic_action 3) ~m:3 in
  let n_gens = Semidirect.base_gens ~n:3 in
  let bound = Group.order g in
  let queries = Quantum.Query.create () in
  let orders =
    List.map
      (fun x ->
        let labels = Order_finding.order_mod_generated r g n_gens x ~bound ~queries in
        let watrous = Order_finding.order_mod_generated_watrous r g n_gens x ~queries in
        checki "watrous = coset labels" labels watrous;
        watrous)
      (Group.elements g)
  in
  Alcotest.(check (list int)) "orders seen" [ 1; 3 ] (List.sort_uniq Int.compare orders);
  checkb "queries charged" true (Quantum.Query.count queries > 0)

(* ------------------------------------------------------------------ *)
(* Beals–Babai task list (Corollary 5)                                *)
(* ------------------------------------------------------------------ *)

(* Each regime runs the generic algorithms on the group (Theorem 6) or
   on the quotient view: Quotient.group_mod for a hidden normal
   subgroup (Theorem 7), Quotient.group_mod_generated for one given by
   generators (Theorem 10). *)

let test_beals_babai_unique_encoding () =
  let r = rng () in
  let g = Dihedral.group 10 in
  checki "order" 20 (Group.order g);
  checkb "nu solvable" true (Group.is_solvable g);
  let queries = Quantum.Query.create () in
  checki "element order" 10
    (Order_finding.order r g (Dihedral.rotation 10 1) ~bound:(Group.order g) ~queries);
  checkb "member" true
    (Group.mem g (Group.closure_set g (Group.elements g)) (Dihedral.reflection 10 3));
  checki "center" 2 (List.length (Group.center g));
  checki "sylow 5" 5 (List.length (Group.sylow_subgroup g 5));
  let series = Group.composition_series g in
  checki "series head" 20 (List.length (List.hd series));
  (* constructive membership: word evaluates back to the element *)
  let pres, word_of = Presentation.of_group g in
  let x = Dihedral.reflection 10 7 in
  checkb "word valid" true (g.Group.equal (Word.eval g g.Group.generators (word_of x)) x);
  (* presentation is verified by Todd-Coxeter *)
  checki "presented order" 20 (Toddcoxeter.order_of_presentation pres ~max_cosets:200)

let test_beals_babai_hidden_quotient () =
  (* Theorem 7 regime: D_12 with hidden <s^3>; the quotient D_12/<s^3>
     has order 6 *)
  let inst = Instances.dihedral_rotation ~n:12 ~d:3 in
  let q = Quotient.group_mod inst.Instances.group inst.Instances.hiding in
  checki "quotient order" 6 (Group.order q);
  checkb "quotient solvable, nu = 1" true (Group.is_solvable q);
  let pres, _ = Presentation.of_group q in
  checki "presented quotient order" 6 (Toddcoxeter.order_of_presentation pres ~max_cosets:100);
  (* queries were charged to the hiding function *)
  let c, _ = Hiding.total_queries inst.Instances.hiding in
  checkb "classical queries used" true (c > 0)

let test_beals_babai_nu_nonsolvable () =
  (* for non-solvable groups the enumerable-scale bound is |G| *)
  let g = Perm.alternating 5 in
  checkb "A_5 not solvable" false (Group.is_solvable g);
  checki "nu(A_5) = |A_5|" 60 (Group.order g);
  Alcotest.check_raises "composition series refuses"
    (Invalid_argument "Group.composition_series: not solvable") (fun () ->
      ignore (Group.composition_series g))

let test_beals_babai_generated_quotient () =
  (* Theorem 10 regime: wreath product modulo its base *)
  let q = Quotient.group_mod_generated (Wreath.group 2) (Wreath.base_gens 2) in
  checki "G/N order" 2 (Group.order q);
  checki "sylow of quotient" 2 (List.length (Group.sylow_subgroup q 2))

(* ------------------------------------------------------------------ *)
(* Hidden normal subgroup (Theorem 8)                                 *)
(* ------------------------------------------------------------------ *)

let test_normal_dihedral_rotations () =
  let r = rng () in
  List.iter
    (fun (n, d) ->
      let inst = Instances.dihedral_rotation ~n ~d in
      let res = Normal_hsp.solve r inst.Instances.group inst.Instances.hiding in
      check_solution (Printf.sprintf "D_%d <s^%d>" n d) inst res.Normal_hsp.generators;
      checki "quotient order" (2 * d) res.Normal_hsp.quotient_order)
    [ (6, 1); (6, 2); (12, 3); (15, 5); (16, 4) ]

let test_normal_trivial_and_full () =
  let r = rng () in
  let g = Dihedral.group 6 in
  (* full group hidden: f constant *)
  let inst = Instances.make ~name:"full" g (Group.elements g) in
  let res = Normal_hsp.solve r g inst.Instances.hiding in
  check_solution "H = G" inst res.Normal_hsp.generators;
  checki "quotient trivial" 1 res.Normal_hsp.quotient_order;
  (* trivial subgroup hidden: f injective; quotient = G *)
  let inst = Instances.make ~name:"trivial" g [] in
  let res = Normal_hsp.solve r g inst.Instances.hiding in
  check_solution "H = 1" inst res.Normal_hsp.generators;
  checki "quotient is G" 12 res.Normal_hsp.quotient_order

let test_normal_in_permutation_groups () =
  let r = rng () in
  (* Klein four in S_4 *)
  let inst = Instances.perm_normal_klein () in
  let res = Normal_hsp.solve r inst.Instances.group inst.Instances.hiding in
  check_solution "V_4 in S_4" inst res.Normal_hsp.generators;
  (* A_4 in S_4 *)
  let s4 = Perm.symmetric 4 in
  let a4 = Group.elements (Perm.alternating 4) in
  let inst = Instances.make ~name:"A4" s4 a4 in
  let res = Normal_hsp.solve r s4 inst.Instances.hiding in
  check_solution "A_4 in S_4" inst res.Normal_hsp.generators

let test_normal_in_solvable_matrix_group () =
  let r = rng () in
  (* the Section 6 group is solvable; its base N is hidden-normal *)
  let a = [| [| 0; 1 |]; [| 1; 1 |] |] in
  let vs = [ [| 1; 0 |]; [| 0; 1 |] ] in
  let g = Matrix_group.section6_group ~p:2 ~a vs in
  checkb "solvable" true (Group.is_solvable g);
  let n_gens = Matrix_group.section6_normal_gens ~p:2 ~k:2 vs in
  let n_closed = Group.normal_closure g n_gens in
  let inst = Instances.make ~name:"sec6-N" g n_closed in
  let res = Normal_hsp.solve r g inst.Instances.hiding in
  check_solution "base of section6" inst res.Normal_hsp.generators

let test_normal_center_of_heisenberg () =
  let r = rng () in
  let inst = Instances.heisenberg_center ~p:3 ~m:1 in
  let res = Normal_hsp.solve r inst.Instances.group inst.Instances.hiding in
  check_solution "Z(H_3)" inst res.Normal_hsp.generators

let test_normal_in_frobenius_and_affine () =
  (* translation subgroups of solvable metacyclic groups (Theorem 8's
     "solvable groups in polynomial time") *)
  let r = rng () in
  let inst = Instances.frobenius_translations ~p:7 ~q:3 in
  let res = Normal_hsp.solve r inst.Instances.group inst.Instances.hiding in
  check_solution "Z_7 in F_21" inst res.Normal_hsp.generators;
  checki "F21 quotient" 3 res.Normal_hsp.quotient_order;
  let inst = Instances.affine_translations ~p:5 in
  let res = Normal_hsp.solve r inst.Instances.group inst.Instances.hiding in
  check_solution "Z_5 in AGL(1,5)" inst res.Normal_hsp.generators;
  checki "AGL quotient" 4 res.Normal_hsp.quotient_order;
  let inst = Instances.frobenius_translations ~p:11 ~q:5 in
  let res = Normal_hsp.solve r inst.Instances.group inst.Instances.hiding in
  check_solution "Z_11 in F_55" inst res.Normal_hsp.generators

let test_thm11_dicyclic () =
  (* Q_4n has |G'| = n: Theorem 11 solves arbitrary hidden subgroups *)
  let r = rng () in
  List.iter
    (fun n ->
      let inst = Instances.dicyclic_center ~n in
      let res = Small_commutator.solve r inst.Instances.group inst.Instances.hiding in
      check_solution (Printf.sprintf "Z(Q_%d)" (4 * n)) inst res.Small_commutator.generators;
      checki "G' order" n res.Small_commutator.commutator_order;
      for _ = 1 to 2 do
        let inst = Instances.dicyclic_random r ~n in
        let gens = Small_commutator.solve_gens r inst.Instances.group inst.Instances.hiding in
        check_solution (Printf.sprintf "Q_%d random" (4 * n)) inst gens
      done)
    [ 2; 3; 4 ]

let test_thm11_frobenius () =
  let r = rng () in
  let g = Metacyclic.frobenius ~p:7 ~q:3 in
  List.iter
    (fun h_gens ->
      let inst = Instances.make ~name:"F21" g h_gens in
      let gens = Small_commutator.solve_gens r g inst.Instances.hiding in
      check_solution "F_21 subgroup" inst gens)
    [
      [ Metacyclic.base_gen ];
      [ Metacyclic.top_gen ];
      [ { Metacyclic.a = 3; b = 1 } ];
      [];
    ]

let test_normal_relators_lie_in_subgroup () =
  let r = rng () in
  let inst = Instances.dihedral_rotation ~n:10 ~d:2 in
  let res = Normal_hsp.solve r inst.Instances.group inst.Instances.hiding in
  let h_set =
    Group.closure_set inst.Instances.group
      (Group.closure inst.Instances.group inst.Instances.hidden_gens)
  in
  List.iter
    (fun x -> checkb "relator image in N" true (Group.mem inst.Instances.group h_set x))
    res.Normal_hsp.relator_images

(* ------------------------------------------------------------------ *)
(* Small commutator subgroup (Theorem 11, Corollary 12)               *)
(* ------------------------------------------------------------------ *)

let test_thm11_heisenberg_various_subgroups () =
  let r = rng () in
  List.iter
    (fun p ->
      for _ = 1 to 3 do
        let inst = Instances.heisenberg_random r ~p ~m:1 in
        let gens = Small_commutator.solve_gens r inst.Instances.group inst.Instances.hiding in
        check_solution (Printf.sprintf "H_%d random" p) inst gens
      done)
    [ 2; 3; 5 ]

let test_thm11_center_and_corollary12 () =
  let r = rng () in
  List.iter
    (fun p ->
      let inst = Instances.heisenberg_center ~p ~m:1 in
      let res = Small_commutator.solve r inst.Instances.group inst.Instances.hiding in
      check_solution (Printf.sprintf "center p=%d" p) inst res.Small_commutator.generators;
      checki "G' has order p" p res.Small_commutator.commutator_order)
    [ 3; 5; 7 ]

let test_thm11_on_abelian_group () =
  (* degenerate case |G'| = 1: reduces to plain Abelian HSP *)
  let r = rng () in
  let inst = Instances.abelian_random r ~dims:[| 6; 4 |] in
  let res = Small_commutator.solve r inst.Instances.group inst.Instances.hiding in
  check_solution "abelian degenerate" inst res.Small_commutator.generators;
  checki "trivial commutator" 1 res.Small_commutator.commutator_order

let test_thm11_dihedral_small () =
  (* D_4 has |G'| = 2: every hidden subgroup findable *)
  let r = rng () in
  let g = Dihedral.group 4 in
  List.iter
    (fun h_gens ->
      let inst = Instances.make ~name:"D4" g h_gens in
      let gens = Small_commutator.solve_gens r g inst.Instances.hiding in
      check_solution "D_4 subgroup" inst gens)
    [
      [ Dihedral.reflection 4 0 ];
      [ Dihedral.reflection 4 1 ];
      [ Dihedral.rotation 4 2 ];
      [ Dihedral.rotation 4 1 ];
      [];
    ]

let test_thm11_via_theorem8_agrees () =
  let r = rng () in
  for _ = 1 to 3 do
    let inst = Instances.heisenberg_random r ~p:3 ~m:1 in
    let a = Small_commutator.solve r inst.Instances.group inst.Instances.hiding in
    let b = Small_commutator.solve_via_theorem8 r inst.Instances.group inst.Instances.hiding in
    checkb "both correct" true
      (Group.subgroup_equal inst.Instances.group a.Small_commutator.generators
         b.Small_commutator.generators);
    check_solution "via thm8" inst b.Small_commutator.generators
  done

let test_thm11_higher_rank_heisenberg () =
  let r = rng () in
  let inst = Instances.heisenberg_random r ~p:3 ~m:2 in
  let gens = Small_commutator.solve_gens r inst.Instances.group inst.Instances.hiding in
  check_solution "H_3(2) order 243" inst gens

(* ------------------------------------------------------------------ *)
(* Elementary Abelian normal 2-subgroup (Theorem 13)                  *)
(* ------------------------------------------------------------------ *)

let test_thm13_general_wreath () =
  let r = rng () in
  for k = 2 to 4 do
    for _ = 1 to 3 do
      let inst = Instances.wreath_random r ~k in
      let res =
        Elem_abelian2.solve_general r inst.Instances.group ~n_gens:(Wreath.base_gens k)
          inst.Instances.hiding
      in
      check_solution (Printf.sprintf "wreath k=%d" k) inst res.Elem_abelian2.generators;
      checki "|G/N| = 2" 2 res.Elem_abelian2.quotient_order
    done
  done

let test_thm13_diagonal_involution () =
  let r = rng () in
  let k = 3 in
  let inst = Instances.wreath_diagonal ~k in
  let res =
    Elem_abelian2.solve_general r inst.Instances.group ~n_gens:(Wreath.base_gens k)
      inst.Instances.hiding
  in
  check_solution "diagonal" inst res.Elem_abelian2.generators

let test_thm13_cyclic_semidirect () =
  let r = rng () in
  List.iter
    (fun (n, m) ->
      for _ = 1 to 2 do
        let inst = Instances.semidirect_random r ~n ~m in
        let res =
          Elem_abelian2.solve_cyclic r inst.Instances.group ~n_gens:(Semidirect.base_gens ~n)
            inst.Instances.hiding
        in
        check_solution (Printf.sprintf "Z2^%d:Z%d" n m) inst res.Elem_abelian2.generators;
        checki "quotient order" m res.Elem_abelian2.quotient_order
      done)
    [ (3, 3); (4, 4); (4, 2); (6, 3) ]

let test_thm13_cyclic_matches_general () =
  let r = rng () in
  for _ = 1 to 3 do
    let inst = Instances.semidirect_random r ~n:4 ~m:4 in
    let a =
      Elem_abelian2.solve_cyclic r inst.Instances.group ~n_gens:(Semidirect.base_gens ~n:4)
        inst.Instances.hiding
    in
    let b =
      Elem_abelian2.solve_general r inst.Instances.group ~n_gens:(Semidirect.base_gens ~n:4)
        inst.Instances.hiding
    in
    checkb "agree" true
      (Group.subgroup_equal inst.Instances.group a.Elem_abelian2.generators
         b.Elem_abelian2.generators)
  done

let test_thm13_subgroup_inside_n () =
  let r = rng () in
  let k = 3 in
  let g = Wreath.group k in
  let h_gens = [ Wreath.of_tuple k [| 1; 1; 0; 0; 1; 0; 0 |] ] in
  let inst = Instances.make ~name:"insideN" g h_gens in
  let res = Elem_abelian2.solve_general r g ~n_gens:(Wreath.base_gens k) inst.Instances.hiding in
  check_solution "H inside N" inst res.Elem_abelian2.generators

let test_thm13_full_group () =
  let r = rng () in
  let k = 2 in
  let g = Wreath.group k in
  let inst = Instances.make ~name:"fullG" g (Group.elements g) in
  let res = Elem_abelian2.solve_general r g ~n_gens:(Wreath.base_gens k) inst.Instances.hiding in
  check_solution "H = G" inst res.Elem_abelian2.generators

let test_thm13_noncyclic_factor () =
  (* Theorem 13's general case with a NON-cyclic factor group: the
     transversal construction must cover G/N = V_4 *)
  let r = rng () in
  let n = 4 in
  let top =
    [ Perm.of_cycles 4 [ [ 0; 1 ]; [ 2; 3 ] ]; Perm.of_cycles 4 [ [ 0; 2 ]; [ 1; 3 ] ] ]
  in
  let g = Semidirect_perm.group ~n ~top in
  let n_gens = Semidirect_perm.base_gens ~n in
  for _ = 1 to 4 do
    let h_gens = Group.random_subgroup_gens r g in
    let inst = Instances.make ~name:"Z2^4:V4" g h_gens in
    let res = Elem_abelian2.solve_general r g ~n_gens inst.Instances.hiding in
    check_solution "V_4 factor" inst res.Elem_abelian2.generators;
    checki "|G/N| = 4" 4 res.Elem_abelian2.quotient_order
  done;
  (* also a subgroup that projects onto the full V_4 *)
  let h_gens =
    [
      Semidirect_perm.lift_perm ~n (Perm.of_cycles 4 [ [ 0; 1 ]; [ 2; 3 ] ]);
      Semidirect_perm.lift_perm ~n (Perm.of_cycles 4 [ [ 0; 2 ]; [ 1; 3 ] ]);
    ]
  in
  let inst = Instances.make ~name:"Z2^4:V4-top" g h_gens in
  let res = Elem_abelian2.solve_general r g ~n_gens inst.Instances.hiding in
  check_solution "top-projecting subgroup" inst res.Elem_abelian2.generators

let test_thm13_rejects_non_2_group () =
  let r = rng () in
  let g = Extraspecial.group ~p:3 ~m:1 in
  let inst = Instances.heisenberg_center ~p:3 ~m:1 in
  Alcotest.check_raises "not elementary 2"
    (Invalid_argument "Elem_abelian2: N is not an elementary Abelian 2-group") (fun () ->
      ignore
        (Elem_abelian2.solve_general r g
           ~n_gens:[ Extraspecial.center_gen ~p:3 ~m:1 ]
           inst.Instances.hiding))

let test_thm13_section6_matrix_group () =
  (* the paper's own Section 6 matrix family, cyclic factor *)
  let r = rng () in
  let a = [| [| 0; 1 |]; [| 1; 1 |] |] in
  let vs = [ [| 1; 0 |]; [| 0; 1 |] ] in
  let g = Matrix_group.section6_group ~p:2 ~a vs in
  let n_gens = Group.normal_closure g (Matrix_group.section6_normal_gens ~p:2 ~k:2 vs) in
  let h_gens = [ Matrix_group.section6_type_b ~p:2 ~k:2 [| 1; 1 |] ] in
  let inst = Instances.make ~name:"sec6" g h_gens in
  let res = Elem_abelian2.solve_cyclic r g ~n_gens inst.Instances.hiding in
  check_solution "section6 hidden translation" inst res.Elem_abelian2.generators

(* ------------------------------------------------------------------ *)
(* Baselines                                                          *)
(* ------------------------------------------------------------------ *)

let test_classical_brute_force () =
  let r = rng () in
  let inst = Instances.dihedral_rotation ~n:12 ~d:4 in
  let gens = Classical.brute_force inst.Instances.group inst.Instances.hiding in
  check_solution "brute force" inst gens;
  let c, q = Hiding.total_queries inst.Instances.hiding in
  checki "quantum-free" 0 q;
  checkb "queries ~ |G|" true (c >= Group.order inst.Instances.group);
  ignore r

let test_ettinger_hoyer_slopes () =
  let r = rng () in
  List.iter
    (fun (n, d) ->
      let inst = Instances.dihedral_reflection ~n ~d in
      Quantum.Metrics.reset ();
      match Ettinger_hoyer.solve r ~n inst.Instances.hiding with
      | Some res ->
          checki (Printf.sprintf "slope n=%d" n) d res.Ettinger_hoyer.slope;
          (* every batch draws from one sampler: one O(|G|) expansion *)
          checki "one sampler prep per solve" 1
            (Quantum.Metrics.snapshot ()).Quantum.Metrics.sampler_preps;
          (* queries logarithmic, post-processing linear in n *)
          let _, q = Hiding.total_queries inst.Instances.hiding in
          checkb "log queries" true (q <= 40 * (Numtheory.Arith.ilog2 n + 2));
          checkb "linear scan" true (res.Ettinger_hoyer.candidates_scanned >= n)
      | None -> Alcotest.fail "EH failed")
    [ (8, 3); (16, 5); (32, 17); (25, 11) ]

let test_roetteler_beth () =
  let r = rng () in
  for k = 2 to 4 do
    let inst = Instances.wreath_random r ~k in
    let gens = Roetteler_beth.solve r ~k inst.Instances.hiding in
    check_solution (Printf.sprintf "RB k=%d" k) inst gens
  done

let test_dlog_small_primes () =
  let r = rng () in
  List.iter
    (fun (p, g, l) ->
      let h = Numtheory.Arith.powmod g l p in
      match Dlog.discrete_log r ~p ~g ~h with
      | Some found ->
          (* any representative of l modulo ord(g) is fine *)
          checki
            (Printf.sprintf "dlog p=%d" p)
            (Numtheory.Arith.emod l (Numtheory.Arith.multiplicative_order g p))
            found
      | None -> Alcotest.fail "dlog failed")
    [ (11, 2, 7); (23, 5, 9); (101, 2, 37); (31, 3, 11) ]

let test_dlog_outside_subgroup () =
  let r = rng () in
  (* 2 generates the squares mod 7 = {1,2,4}; 3 is outside *)
  checkb "outside" true (Dlog.discrete_log r ~p:7 ~g:2 ~h:3 = None)

(* ------------------------------------------------------------------ *)
(* Runner                                                             *)
(* ------------------------------------------------------------------ *)

let test_runner_report () =
  let r = rng () in
  let inst = Instances.simon ~n:4 ~mask:[| 1; 1; 0; 0 |] in
  let report =
    Runner.run ~algorithm:"abelian" inst ~solver:(fun i ->
        Abelian_hsp.solve r i.Instances.group i.Instances.hiding)
  in
  checkb "ok" true report.Runner.ok;
  checki "group order" 16 report.Runner.group_order;
  checki "subgroup order" 2 report.Runner.subgroup_order;
  checkb "counted" true (report.Runner.quantum_queries > 0);
  (* the gate can fail: a solver that answers the trivial subgroup is
     wrong here, since |H| = 2 *)
  let wrong = Runner.run ~algorithm:"trivial" inst ~solver:(fun _ -> []) in
  checkb "wrong answer fails" false wrong.Runner.ok;
  checki "subgroup order of the wrong run" 2 wrong.Runner.subgroup_order

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"abelian HSP solves random instances" ~count:40
      (pair (int_range 2 6) (int_range 2 6))
      (fun (d1, d2) ->
        let r = Random.State.make [| d1; d2; 99 |] in
        let inst = Instances.abelian_random r ~dims:[| d1; d2 |] in
        let gens = Abelian_hsp.solve r inst.Instances.group inst.Instances.hiding in
        Group.subgroup_equal inst.Instances.group gens inst.Instances.hidden_gens);
    Test.make ~name:"theorem 11 solves random dihedral instances" ~count:20
      (int_range 2 6)
      (fun n ->
        (* D_n for even small n has |G'| = n/gcd... always small here *)
        let r = Random.State.make [| n; 77 |] in
        let g = Dihedral.group n in
        let inst = Instances.random_subgroup r ~name:"Dn" g in
        let gens = Small_commutator.solve_gens r g inst.Instances.hiding in
        Group.subgroup_equal g gens inst.Instances.hidden_gens);
    Test.make ~name:"normal HSP finds rotation subgroups" ~count:20
      (int_range 2 10)
      (fun n ->
        let r = Random.State.make [| n; 55 |] in
        let divisors = List.filter (fun m -> n mod m = 0) (List.init n succ) in
        let d = List.nth divisors (Random.State.int r (List.length divisors)) in
        let inst = Instances.dihedral_rotation ~n ~d in
        let res = Normal_hsp.solve r inst.Instances.group inst.Instances.hiding in
        Group.subgroup_equal inst.Instances.group res.Normal_hsp.generators
          inst.Instances.hidden_gens);
    Test.make ~name:"ettinger-hoyer recovers random slopes" ~count:15
      (int_range 4 24)
      (fun n ->
        let r = Random.State.make [| n; 33 |] in
        let d = Random.State.int r n in
        let inst = Instances.dihedral_reflection ~n ~d in
        match Ettinger_hoyer.solve r ~n inst.Instances.hiding with
        | Some res -> res.Ettinger_hoyer.slope = d
        | None -> false);
  ]

(* A cyclic factor past 2^30, where Random.State.int raises: the
   symbolic route of `hsp solve-abelian --backend symbolic --dims
   1073741827,4 --moduli 1,2` (sampler_with_subgroup, then solve_dims)
   must solve it.  Modulus 1 draws a representative below 2^31;
   modulus p leaves all of Z_p in the annihilator, so its HNF sampler
   draws below 2^31 too.  1073741789, just under 2^30, is the
   control. *)
let test_abelian_large_cyclic_factor () =
  List.iter
    (fun (p, m) ->
      let dims = [| p; 4 |] and moduli = [| m; 2 |] in
      let sub_gens = [ [| m; 0 |]; [| 0; 2 |] ] in
      let queries = Quantum.Query.create () in
      let draw =
        Quantum.Coset_state.sampler_with_subgroup ~backend:Quantum.Backend.Symbolic ~dims
          ~subgroup:sub_gens ~queries ()
      in
      let in_h x = Array.for_all2 (fun xi m -> xi mod m = 0) x moduli in
      let f x = Quantum.Backend.encode moduli (Array.map2 (fun xi m -> xi mod m) x moduli) in
      let gens, _ =
        Abelian_hsp.solve_dims (rng ()) ~draw ~dims ~f ~quantum:queries ~verify:in_h ()
      in
      let module Sub = Quantum.Backend_symbolic.Subgroup in
      checkb
        (Printf.sprintf "Z_%d x Z_4, moduli %d,2 solved" p m)
        true
        (List.for_all in_h gens && Sub.equal (Sub.of_gens ~dims gens) (Sub.of_gens ~dims sub_gens)))
    [ (1073741827, 1); (1073741827, 1073741827); (1073741789, 1); (1073741789, 1073741789) ]

let () =
  Alcotest.run "hsp"
    [
      ( "hiding",
        [
          Alcotest.test_case "constant on cosets" `Quick test_hiding_constant_on_cosets;
          Alcotest.test_case "distinct across cosets" `Quick test_hiding_distinct_across_cosets;
          Alcotest.test_case "counters" `Quick test_hiding_counters;
        ] );
      ( "abelian-hsp",
        [
          Alcotest.test_case "simon all masks" `Quick test_simon_all_masks;
          Alcotest.test_case "trivial subgroup" `Quick test_simon_trivial_subgroup;
          Alcotest.test_case "full group" `Quick test_simon_full_group;
          Alcotest.test_case "mixed orders" `Quick test_abelian_mixed_orders;
          Alcotest.test_case "query counts" `Quick test_abelian_query_count_logarithmic;
          Alcotest.test_case "restricted to subgroup" `Quick test_abelian_hsp_on_subgroup;
          Alcotest.test_case "cyclic factor past 2^30" `Quick test_abelian_large_cyclic_factor;
        ] );
      ( "membership",
        [
          Alcotest.test_case "cyclic product" `Quick test_membership_in_cyclic_product;
          Alcotest.test_case "identity" `Quick test_membership_identity;
          Alcotest.test_case "nonabelian ambient" `Quick test_membership_in_nonabelian_ambient;
          Alcotest.test_case "random targets" `Slow test_membership_random;
        ] );
      ( "order-finding",
        [
          Alcotest.test_case "in group" `Quick test_order_in_group;
          Alcotest.test_case "mod hidden subgroup" `Quick test_order_mod_hidden;
          Alcotest.test_case "mod generated subgroup" `Quick test_order_mod_generated;
          Alcotest.test_case "watrous coset states" `Quick test_order_mod_generated_watrous;
        ] );
      ( "beals-babai",
        [
          Alcotest.test_case "unique encoding" `Quick test_beals_babai_unique_encoding;
          Alcotest.test_case "hidden quotient" `Quick test_beals_babai_hidden_quotient;
          Alcotest.test_case "generated quotient" `Quick test_beals_babai_generated_quotient;
          Alcotest.test_case "nu non-solvable" `Quick test_beals_babai_nu_nonsolvable;
        ] );
      ( "normal-hsp",
        [
          Alcotest.test_case "dihedral rotations" `Quick test_normal_dihedral_rotations;
          Alcotest.test_case "trivial and full" `Quick test_normal_trivial_and_full;
          Alcotest.test_case "permutation groups" `Quick test_normal_in_permutation_groups;
          Alcotest.test_case "solvable matrix group" `Quick test_normal_in_solvable_matrix_group;
          Alcotest.test_case "heisenberg center" `Quick test_normal_center_of_heisenberg;
          Alcotest.test_case "frobenius and affine" `Quick test_normal_in_frobenius_and_affine;
          Alcotest.test_case "relators in subgroup" `Quick test_normal_relators_lie_in_subgroup;
        ] );
      ( "small-commutator",
        [
          Alcotest.test_case "heisenberg random" `Quick test_thm11_heisenberg_various_subgroups;
          Alcotest.test_case "corollary 12" `Quick test_thm11_center_and_corollary12;
          Alcotest.test_case "abelian degenerate" `Quick test_thm11_on_abelian_group;
          Alcotest.test_case "dihedral small" `Quick test_thm11_dihedral_small;
          Alcotest.test_case "dicyclic" `Quick test_thm11_dicyclic;
          Alcotest.test_case "frobenius" `Quick test_thm11_frobenius;
          Alcotest.test_case "via theorem 8" `Slow test_thm11_via_theorem8_agrees;
          Alcotest.test_case "higher rank" `Slow test_thm11_higher_rank_heisenberg;
        ] );
      ( "elem-abelian-2",
        [
          Alcotest.test_case "general wreath" `Quick test_thm13_general_wreath;
          Alcotest.test_case "diagonal" `Quick test_thm13_diagonal_involution;
          Alcotest.test_case "cyclic semidirect" `Quick test_thm13_cyclic_semidirect;
          Alcotest.test_case "cyclic = general" `Slow test_thm13_cyclic_matches_general;
          Alcotest.test_case "H inside N" `Quick test_thm13_subgroup_inside_n;
          Alcotest.test_case "H = G" `Quick test_thm13_full_group;
          Alcotest.test_case "non-cyclic factor" `Quick test_thm13_noncyclic_factor;
          Alcotest.test_case "rejects non-2-group" `Quick test_thm13_rejects_non_2_group;
          Alcotest.test_case "section6 matrices" `Quick test_thm13_section6_matrix_group;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "classical brute force" `Quick test_classical_brute_force;
          Alcotest.test_case "ettinger-hoyer" `Quick test_ettinger_hoyer_slopes;
          Alcotest.test_case "roetteler-beth" `Quick test_roetteler_beth;
          Alcotest.test_case "dlog" `Quick test_dlog_small_primes;
          Alcotest.test_case "dlog outside" `Quick test_dlog_outside_subgroup;
        ] );
      ("runner", [ Alcotest.test_case "report" `Quick test_runner_report ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
