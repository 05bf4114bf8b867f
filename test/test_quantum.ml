(* Tests for the qudit state-vector simulator, circuits, QFT, coset
   sampling and Shor period finding. *)

open Linalg
open Quantum

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let rng () = Random.State.make [| 0xbeef |]

(* ------------------------------------------------------------------ *)
(* State basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_encode_decode () =
  let dims = [| 3; 2; 4 |] in
  for idx = 0 to 23 do
    checki "roundtrip" idx (State.encode dims (State.decode dims idx))
  done;
  checki "mixed radix" ((2 * 8) + (1 * 4) + 3) (State.encode dims [| 2; 1; 3 |]);
  let raises msg x =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (State.encode dims x))
  in
  raises "State.encode: arity mismatch" [| 2; 1 |];
  raises "State.encode: arity mismatch" [| 2; 1; 3; 0 |];
  raises "State.encode: value out of range" [| 2; 2; 3 |];
  raises "State.encode: value out of range" [| 0; 0; 4 |];
  raises "State.encode: value out of range" [| 0; -1; 0 |];
  raises "State.encode: value out of range" [| min_int; 0; 0 |]

let test_create_norm () =
  let st = State.create [| 2; 3 |] in
  checkb "unit norm" true (Float.abs (State.norm st -. 1.0) < 1e-12);
  let a = State.amplitudes st in
  checkb "is |0,0>" true (Cx.approx_equal a.(0) Cx.one)

let test_uniform () =
  let st = State.uniform [| 2; 2; 2 |] in
  let a = State.amplitudes st in
  Array.iter (fun z -> checkb "equal amps" true (Cx.approx_equal z (Cx.re (1.0 /. sqrt 8.0)))) a

let test_tensor () =
  let a = State.of_basis [| 2 |] [| 1 |] and b = State.of_basis [| 3 |] [| 2 |] in
  let t = State.tensor a b in
  let amps = State.amplitudes t in
  checkb "basis |1,2>" true (Cx.approx_equal amps.(State.encode [| 2; 3 |] [| 1; 2 |]) Cx.one)

let test_apply_wire_preserves_norm () =
  let st = State.uniform [| 2; 3 |] in
  let st = State.apply_wire st ~wire:1 (Cmat.dft 3) in
  checkb "norm" true (Float.abs (State.norm st -. 1.0) < 1e-9)

let test_apply_wires_matches_kron () =
  (* applying U on wire 0 and V on wire 1 equals kron U V on both *)
  let rng = rng () in
  let random_state dims =
    let total = Array.fold_left ( * ) 1 dims in
    let v =
      Array.init total (fun _ ->
          Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))
    in
    State.of_amplitudes dims v
  in
  let st = random_state [| 2; 3 |] in
  let u = Cmat.dft 2 and v = Cmat.dft 3 in
  let a = State.apply_wire (State.apply_wire st ~wire:0 u) ~wire:1 v in
  let b = State.apply_wires st ~wires:[ 0; 1 ] (Cmat.kron u v) in
  checkb "factorised = joint" true (State.approx_equal ~eps:1e-9 a b)

let test_apply_wires_order () =
  (* wires [1;0] applies the matrix with wire 1 most significant *)
  let st = State.of_basis [| 2; 2 |] [| 0; 1 |] in
  (* swap on [0;1] maps |0,1> -> |1,0> *)
  let sw = State.apply_wires st ~wires:[ 0; 1 ] Gates.swap in
  let a = State.amplitudes sw in
  checkb "swapped" true (Cx.approx_equal a.(State.encode [| 2; 2 |] [| 1; 0 |]) Cx.one)

let test_basis_map_cnot () =
  let st = State.of_basis [| 2; 2 |] [| 1; 0 |] in
  let cnot x = [| x.(0); (x.(0) + x.(1)) mod 2 |] in
  let st = State.apply_basis_map st cnot in
  let a = State.amplitudes st in
  checkb "cnot |10> = |11>" true (Cx.approx_equal a.(3) Cx.one)

let test_basis_map_rejects_non_bijection () =
  (* uniform, not a basis state: the sparse backend checks bijectivity
     on the populated support only, so the collision must be visible
     there for the test to hold on every backend *)
  let st = State.uniform [| 2; 2 |] in
  Alcotest.check_raises "collapse map"
    (Invalid_argument "State.apply_basis_map: not a bijection") (fun () ->
      ignore (State.apply_basis_map st (fun _ -> [| 0; 0 |])))

let test_oracle_add () =
  let st = State.uniform [| 4 |] in
  let st = State.tensor st (State.create [| 3 |]) in
  let st = State.apply_oracle_add st ~in_wires:[ 0 ] ~out_wire:1 ~f:(fun x -> x.(0) mod 3) in
  let probs = State.probabilities st ~wires:[ 0; 1 ] in
  (* each |x, x mod 3> has probability 1/4 *)
  for x = 0 to 3 do
    let p = probs.(State.encode [| 4; 3 |] [| x; x mod 3 |]) in
    checkb "oracle entry" true (Float.abs (p -. 0.25) < 1e-9)
  done

let test_measure_collapse () =
  let rng = rng () in
  let st = State.uniform [| 2; 2 |] in
  let outcome, post = State.measure rng st ~wires:[ 0 ] in
  (* post-measurement state has wire 0 fixed *)
  let probs = State.probabilities post ~wires:[ 0 ] in
  checkb "collapsed" true (Float.abs (probs.(outcome.(0)) -. 1.0) < 1e-9)

let test_measure_statistics () =
  (* Born rule sanity: |+> measured 2000 times lands near 50/50 *)
  let rng = rng () in
  let st = State.apply_wire (State.create [| 2 |]) ~wire:0 Gates.h in
  let ones = ref 0 in
  for _ = 1 to 2000 do
    let o = State.measure_all rng st in
    if o.(0) = 1 then incr ones
  done;
  checkb "between 40% and 60%" true (!ones > 800 && !ones < 1200)

let test_probabilities_marginal () =
  let st = State.uniform [| 2; 3 |] in
  let p = State.probabilities st ~wires:[ 1 ] in
  Array.iter (fun x -> checkb "1/3 each" true (Float.abs (x -. (1.0 /. 3.0)) < 1e-9)) p

(* Dense measure_all draws straight off the planes; it must agree with
   the full measurement bit for bit: same outcome, same RNG stream. *)
let check_measure_all_matches st =
  let all = List.init (State.num_wires st) (fun i -> i) in
  for seed = 1 to 1000 do
    let r1 = Random.State.make [| seed |] and r2 = Random.State.make [| seed |] in
    let a = State.measure_all r1 st in
    let b, _ = State.measure r2 st ~wires:all in
    if a <> b then Alcotest.failf "seed %d: measure_all and measure disagree" seed;
    checki "same rng stream" (Random.State.bits r2) (Random.State.bits r1)
  done

let dense_of_amps dims amps = State.of_amplitudes dims amps

let test_measure_all_fast_path () =
  let rng = rng () in
  let dims = [| 3; 4; 5 |] in
  let amps =
    Array.init 60 (fun _ ->
        Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))
  in
  let st = dense_of_amps dims amps in
  checkb "dense" true (State.backend st = Backend.Dense);
  check_measure_all_matches st;
  (* Trailing zero mass, and total mass 1/4 (a non-unitary diagonal):
     three draws in four overshoot the running sum, so the fallback —
     the last index carrying mass, never a trailing zero — decides. *)
  let amps =
    Array.init 8 (fun i -> if i < 5 then Cx.make (float_of_int (i + 1)) 0.5 else Cx.zero)
  in
  let half = Cmat.init 8 8 (fun i j -> if i = j then Cx.re 0.5 else Cx.zero) in
  let st = State.apply_wire (dense_of_amps [| 8 |] amps) ~wire:0 half in
  check_measure_all_matches st;
  let fallbacks = ref 0 in
  for seed = 1 to 1000 do
    let o = State.measure_all (Random.State.make [| seed |]) st in
    if o.(0) >= 5 then Alcotest.failf "seed %d: zero-mass outcome %d" seed o.(0);
    if o.(0) = 4 then incr fallbacks
  done;
  checkb "fallback exercised" true (!fallbacks > 600);
  (* a zero state raises, exactly as the full measurement does *)
  let zero = Cmat.init 8 8 (fun _ _ -> Cx.zero) in
  let st = State.apply_wire st ~wire:0 zero in
  let raises f =
    Alcotest.check_raises "zero state"
      (Invalid_argument "Backend.sample_discrete: zero distribution") (fun () ->
        ignore (f (Random.State.make [| 1 |])))
  in
  raises (fun r -> State.measure_all r st);
  raises (fun r -> State.measure r st ~wires:[ 0 ])

let test_register_too_large () =
  Alcotest.check_raises "guard" (Invalid_argument "State: register too large to simulate")
    (fun () -> ignore (State.create (Array.make 30 4)));
  (* the sparse backend takes the same register as an index segment,
     whatever the session default *)
  let st = State.of_indices ~backend:Backend.Sparse (Array.make 30 4) [| 0 |] in
  checkb "sparse" true (State.backend st = Backend.Sparse);
  checki "singleton support" 1 (State.support_size st)

(* ------------------------------------------------------------------ *)
(* Gates and circuits                                                 *)
(* ------------------------------------------------------------------ *)

let test_gates_unitary () =
  List.iter
    (fun (name, g) -> checkb name true (Cmat.is_unitary g))
    [
      ("h", Gates.h); ("x", Gates.x); ("z", Gates.z); ("swap", Gates.swap);
      ("rk 3", Gates.rk 3);
      ("controlled dft3", Gates.controlled (Cmat.dft 3));
    ]

let test_hadamard_involution () =
  checkb "h^2 = I" true (Cmat.approx_equal (Cmat.mul Gates.h Gates.h) (Cmat.identity 2))

let test_qft_circuit_matches_dft () =
  List.iter
    (fun n ->
      let c = Circuit.qft n in
      checkb
        (Printf.sprintf "qft %d" n)
        true
        (Cmat.approx_equal ~eps:1e-9 (Circuit.to_matrix c) (Cmat.dft (1 lsl n))))
    [ 1; 2; 3; 4 ]

let test_qft_inverse_circuit () =
  let n = 3 in
  let c = Circuit.seq (Circuit.qft n) (Circuit.inverse (Circuit.qft n)) in
  checkb "qft . qft^-1 = I" true
    (Cmat.approx_equal ~eps:1e-9 (Circuit.to_matrix c) (Cmat.identity 8))

let test_approximate_qft_close () =
  (* dropping only the smallest rotation (R_4, angle pi/8) perturbs
     each matrix entry by at most |1 - e^{i pi/8}| / 4 ~ 0.098 *)
  let n = 4 in
  let exact = Cmat.dft (1 lsl n) in
  let approx = Circuit.to_matrix (Circuit.qft ~approx_threshold:3 n) in
  let max_err = ref 0.0 in
  for i = 0 to 15 do
    for j = 0 to 15 do
      let d = Complex.norm (Complex.sub exact.(i).(j) approx.(i).(j)) in
      if d > !max_err then max_err := d
    done
  done;
  checkb "approx close" true (!max_err < 0.25);
  checkb "approx differs" true (!max_err > 1e-6);
  checkb "fewer gates" true
    (Circuit.gate_count (Circuit.qft ~approx_threshold:3 n) < Circuit.gate_count (Circuit.qft n))

let test_circuit_run_vs_matrix () =
  let rng = rng () in
  let n = 3 in
  let c = Circuit.qft n in
  let x = Array.init n (fun _ -> Random.State.int rng 2) in
  let by_run = Circuit.run c (State.of_basis (Array.make n 2) x) in
  let by_matrix =
    State.of_amplitudes (Array.make n 2)
      (Cmat.apply (Circuit.to_matrix c) (State.amplitudes (State.of_basis (Array.make n 2) x)))
  in
  checkb "run = matrix" true (State.approx_equal ~eps:1e-9 by_run by_matrix)

(* Ops are stored latest-first, so building a circuit is linear in its
   length; ops, seq and inverse must still read in application order. *)
let test_construction_order () =
  let a = Circuit.gate (Circuit.gate (Circuit.empty 2) Gates.h [ 0 ]) Gates.x [ 1 ] in
  (match Circuit.ops a with
  | [ Circuit.Gate (_, [ 0 ]); Circuit.Gate (_, [ 1 ]) ] -> ()
  | _ -> Alcotest.fail "ops not in application order");
  let b = Circuit.gate (Circuit.empty 2) Gates.z [ 0 ] in
  (match Circuit.ops (Circuit.seq a b) with
  | [ Circuit.Gate (_, [ 0 ]); Circuit.Gate (_, [ 1 ]); Circuit.Gate (_, [ 0 ]) ] -> ()
  | _ -> Alcotest.fail "seq not in application order");
  (match Circuit.ops (Circuit.inverse a) with
  | [ Circuit.Gate (m1, [ 1 ]); Circuit.Gate (m0, [ 0 ]) ] ->
      checkb "inverse adjoints x" true
        (Cmat.approx_equal ~eps:1e-12 m1 (Cmat.adjoint Gates.x));
      checkb "inverse adjoints h" true
        (Cmat.approx_equal ~eps:1e-12 m0 (Cmat.adjoint Gates.h))
  | _ -> Alcotest.fail "inverse not reversed");
  let big =
    let c = ref (Circuit.empty 1) in
    for _ = 1 to 2000 do
      c := Circuit.gate !c Gates.h [ 0 ]
    done;
    !c
  in
  checki "gate_count O(1)" 2000 (Circuit.gate_count big);
  checki "ops materialises all" 2000 (List.length (Circuit.ops big))

(* ------------------------------------------------------------------ *)
(* Qft over products                                                  *)
(* ------------------------------------------------------------------ *)

let test_qft_forward_backward () =
  let rng = rng () in
  let dims = [| 3; 4; 2 |] in
  let total = 24 in
  let v =
    Array.init total (fun _ ->
        Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))
  in
  let st = State.of_amplitudes dims v in
  let st' = Qft.backward (Qft.forward st ~wires:[ 0; 1; 2 ]) ~wires:[ 0; 1; 2 ] in
  checkb "roundtrip" true (State.approx_equal ~eps:1e-9 st st')

let test_character_trivial () =
  let dims = [| 4; 6 |] in
  checkb "chi_0 trivial" true (Qft.character_is_trivial_on ~dims [| 0; 0 |] [| 3; 5 |]);
  checkb "chi_y(0) = 1" true (Qft.character_is_trivial_on ~dims [| 3; 5 |] [| 0; 0 |]);
  (* chi_(2,0) on (2,0): 2*2/4 = 1: trivial *)
  checkb "exact integer case" true (Qft.character_is_trivial_on ~dims [| 2; 0 |] [| 2; 0 |]);
  checkb "nontrivial" false (Qft.character_is_trivial_on ~dims [| 1; 0 |] [| 2; 0 |])

(* Pairings whose unreduced terms y_i h_i (lcm / d_i) pass int63. *)
let test_character_trivial_large () =
  (* y_0 h_0 / d_0 = 2^29 (2^30 - 2) / 2^30 = 2^29 - 1, an integer, at
     an lcm just under 2^61 *)
  let y = [| 1 lsl 29; 0 |] and h = [| (1 lsl 30) - 2; 0 |] in
  checkb "integer pairing, lcm near 2^61" true
    (Qft.character_is_trivial_on ~dims:[| 1 lsl 30; 2147483629 |] y h);
  checkb "same pairing, small lcm" true (Qft.character_is_trivial_on ~dims:[| 1 lsl 30; 3 |] y h);
  checkb "nontrivial, lcm near 2^61" false
    (Qft.character_is_trivial_on ~dims:[| 1 lsl 30; 2147483629 |] [| 1 lsl 29; 0 |] [| 1; 0 |]);
  (* lcm = 65537 * 65539 * 65543 * 65551 > 2^64: no verdict, not a wrong
     one for the zero character (65537, 0, 0, 0) *)
  let dims = [| 65537; 65539; 65543; 65551 |] in
  match Qft.character_is_trivial_on ~dims [| 65537; 0; 0; 0 |] [| 1; 1; 1; 1 |] with
  | _ -> Alcotest.fail "lcm past 2^61 gave a verdict"
  | exception Invalid_argument msg ->
      checkb "error names the bound" true
        (String.length msg >= 4 && String.sub msg (String.length msg - 4) 4 = "2^61")

let test_character_matches_float () =
  let dims = [| 4; 3 |] in
  for yi = 0 to 11 do
    for xi = 0 to 11 do
      let y = State.decode dims yi and x = State.decode dims xi in
      let z = Qft.character ~dims y x in
      let trivially = Qft.character_is_trivial_on ~dims y x in
      checkb "consistency" trivially (Cx.approx_equal ~eps:1e-9 z Cx.one)
    done
  done

(* ------------------------------------------------------------------ *)
(* Coset sampling                                                     *)
(* ------------------------------------------------------------------ *)

(* hiding function of the subgroup generated by [gens] in Z_dims *)
let subgroup_hiding dims gens =
  let total = Array.fold_left ( * ) 1 dims in
  let add a b = Array.mapi (fun i x -> (x + b.(i)) mod dims.(i)) a in
  (* enumerate subgroup *)
  let tbl = Hashtbl.create 16 in
  let rec close frontier =
    match frontier with
    | [] -> ()
    | x :: rest ->
        let key = Array.to_list x in
        if Hashtbl.mem tbl key then close rest
        else begin
          Hashtbl.add tbl key ();
          close (List.map (add x) gens @ rest)
        end
  in
  close [ Array.make (Array.length dims) 0 ];
  let labels = Hashtbl.create total in
  let next = ref 0 in
  for idx = 0 to total - 1 do
    let x = State.decode dims idx in
    if not (Hashtbl.mem labels (Array.to_list x)) then begin
      let l = !next in
      incr next;
      Hashtbl.iter
        (fun h () ->
          let y = add x (Array.of_list h) in
          if not (Hashtbl.mem labels (Array.to_list y)) then
            Hashtbl.add labels (Array.to_list y) l)
        tbl
    end
  done;
  ((fun x -> Hashtbl.find labels (Array.to_list x)), Hashtbl.length tbl)

let test_sampler_in_annihilator () =
  let rng = rng () in
  let dims = [| 4; 3; 2 |] in
  let gens = [ [| 2; 0; 1 |] ] in
  let f, h_size = subgroup_hiding dims gens in
  let queries = Query.create () in
  for _ = 1 to 40 do
    let y = Coset_state.sampler ~dims ~f ~queries () rng in
    (* every sampled character is trivial on every subgroup element *)
    checkb "trivial on gens" true
      (List.for_all (fun g -> Qft.character_is_trivial_on ~dims y g) gens)
  done;
  checki "queries counted" 40 (Query.count queries);
  checkb "h size sane" true (h_size > 1)

let test_sampler_full_matches_fast () =
  (* fast path and full-tensor reference agree in distribution: compare
     empirical frequencies on a small instance *)
  let dims = [| 2; 2; 2 |] in
  let gens = [ [| 1; 1; 0 |] ] in
  let f, _ = subgroup_hiding dims gens in
  let total = 8 in
  let runs = 4000 in
  let histo sampler =
    let rng = Random.State.make [| 77 |] in
    let h = Array.make total 0 in
    let queries = Query.create () in
    for _ = 1 to runs do
      let y = sampler rng ~dims ~f ~queries in
      h.(State.encode dims y) <- h.(State.encode dims y) + 1
    done;
    h
  in
  let h_fast = histo (fun rng ~dims ~f ~queries -> Coset_state.sampler ~dims ~f ~queries () rng)
  and h_full =
    histo (fun rng ~dims ~f ~queries -> Coset_state.sample_full rng ~dims ~f ~queries ())
  in
  (* both should be supported exactly on the annihilator (4 elements,
     1000 each expected); allow generous slack *)
  for idx = 0 to total - 1 do
    let y = State.decode dims idx in
    let in_ann = Qft.character_is_trivial_on ~dims y [| 1; 1; 0 |] in
    if in_ann then begin
      checkb "fast mass" true (h_fast.(idx) > 800);
      checkb "full mass" true (h_full.(idx) > 800)
    end
    else begin
      checki "fast zero" 0 h_fast.(idx);
      checki "full zero" 0 h_full.(idx)
    end
  done

let test_annihilator_subgroup_recovers () =
  let rng = rng () in
  let dims = [| 4; 3; 2 |] in
  let gens = [ [| 2; 0; 1 |]; [| 0; 1; 0 |] ] in
  let f, h_size = subgroup_hiding dims gens in
  let queries = Query.create () in
  let samples = List.init 30 (fun _ -> Coset_state.sampler ~dims ~f ~queries () rng) in
  let recovered = Coset_state.annihilator_subgroup ~dims samples in
  (* closure of recovered = subgroup of same size containing gens *)
  let f2, h2_size = subgroup_hiding dims recovered in
  ignore f2;
  checki "same size" h_size h2_size;
  List.iter
    (fun g ->
      (* recovered subgroup contains the original generators: f2 can't
         tell them from 0 — equivalently original gens are in the
         closure; check via hiding of recovered *)
      checki "gen inside" (f2 (Array.make 3 0)) (f2 g))
    gens

let test_annihilator_empty_samples () =
  (* no samples: the annihilator of nothing is everything *)
  let dims = [| 2; 2 |] in
  let gens = Coset_state.annihilator_subgroup ~dims [] in
  let f, size = subgroup_hiding dims gens in
  ignore f;
  checki "whole group" 4 size

let test_coset_sampler_size_guard () =
  let rng = rng () in
  let queries = Query.create () in
  Alcotest.check_raises "too large"
    (Invalid_argument "Coset_state: group too large for state-vector simulation") (fun () ->
      ignore
        (* 2^27: past even the lifted sparse-sampler cap, so the guard
           trips whatever the session-default backend *)
        (Coset_state.sampler ~dims:(Array.make 27 2) ~f:(fun _ -> 0) ~queries () rng))

(* The oracle route picks its backend in one place
   (Coset_state.oracle_backend), so no choice never hands a group to a
   backend whose cap then rejects it: 2^23 lies between the dense
   route's cap (2^22) and the dense state cap (2^24), and must land on
   sparse.  A symbolic choice means sparse on this route.  Neither
   prep may run the oracle before its first draw. *)
let test_oracle_route_backend () =
  Backend.set_default None;
  let dims = [| 4096; 2048 |] in
  let evals = ref 0 in
  let f x =
    incr evals;
    x.(0) mod 8
  in
  let preps_before = (Metrics.snapshot ()).Metrics.sampler_preps in
  let backend_of ?backend () = Coset_state.prep_backend (Coset_state.prep ?backend ~dims ~f ()) in
  checkb "omitted, 2^23: sparse" true (backend_of () = Backend.Sparse);
  checkb "Symbolic, 2^23: sparse" true (backend_of ~backend:Backend.Symbolic () = Backend.Sparse);
  Backend.set_default (Some Backend.Symbolic);
  let under_symbolic = backend_of () in
  let pick ?backend total = Coset_state.oracle_backend ?backend ~total () in
  Backend.set_default (Some Backend.Dense);
  let under_dense = pick (1 lsl 23) and explicit = pick ~backend:Backend.Sparse 4 in
  Backend.set_default None;
  checkb "symbolic session default: sparse" true (under_symbolic = Backend.Sparse);
  checkb "session default before size" true (under_dense = Backend.Dense);
  checkb "explicit before session default" true (explicit = Backend.Sparse);
  checki "no oracle evaluation before a draw" 0 !evals;
  checki "no prep pass before a draw" preps_before (Metrics.snapshot ()).Metrics.sampler_preps;
  checkb "omitted at the dense cap: dense" true (pick (1 lsl 22) = Backend.Dense);
  checkb "omitted past it: sparse" true (pick ((1 lsl 22) + 1) = Backend.Sparse);
  checkb "Dense as given" true (pick ~backend:Backend.Dense (1 lsl 23) = Backend.Dense);
  checkb "Sparse as given" true (pick ~backend:Backend.Sparse 4 = Backend.Sparse);
  Alcotest.check_raises "explicit dense past its cap is still refused"
    (Invalid_argument "Coset_state: group too large for state-vector simulation") (fun () ->
      ignore (Coset_state.prep ~backend:Backend.Dense ~dims ~f ()))

(* The planted route's rule: explicit, then the session default, then
   symbolic. *)
let test_planted_route_backend () =
  let pick ?backend () = Coset_state.planted_backend ?backend () in
  Backend.set_default None;
  let omitted = pick () and dense = pick ~backend:Backend.Dense () in
  Backend.set_default (Some Backend.Sparse);
  let under_sparse = pick () and explicit = pick ~backend:Backend.Symbolic () in
  Backend.set_default None;
  checkb "omitted: symbolic" true (omitted = Backend.Symbolic);
  checkb "Dense as given" true (dense = Backend.Dense);
  checkb "session default before symbolic" true (under_sparse = Backend.Sparse);
  checkb "explicit before session default" true (explicit = Backend.Symbolic)

let test_coset_draw_law () =
  List.iter
    (fun backend ->
      let draw =
        Coset_state.sampler ~backend ~dims:Coset_law.dims ~f:Coset_law.f
          ~queries:(Query.create ()) ()
      in
      match Coset_law.check draw with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" (Backend.choice_to_string backend) msg)
    [ Backend.Dense; Backend.Sparse ]

(* The planted-subgroup sampler's exact law: on every backend the
   outcome is uniform on H^perp, enumerated here by brute force over
   the group, with zero mass outside it.  The chi-squared gate sits at
   df + 6 sqrt(2 df), roughly p = 1e-5; a symbolic draw that skips the
   first annihilator basis row covers only part of H^perp and scores
   over a thousand. *)
let test_subgroup_sampler_law () =
  List.iter
    (fun (dims, gens) ->
      let total = Array.fold_left ( * ) 1 dims in
      let in_perp =
        Array.init total (fun y ->
            List.for_all (Qft.character_is_trivial_on ~dims (State.decode dims y)) gens)
      in
      let k = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in_perp in
      let draws = 40 * k in
      List.iter
        (fun backend ->
          let name = Printf.sprintf "%s on %d elements" (Backend.choice_to_string backend) total in
          let draw =
            Coset_state.sampler_with_subgroup ~backend ~dims ~subgroup:gens
              ~queries:(Query.create ()) ()
          in
          let rng = Random.State.make [| 0x5ab |] in
          let counts = Array.make total 0 in
          for _ = 1 to draws do
            let y = State.encode dims (draw rng) in
            if not in_perp.(y) then Alcotest.failf "%s: outcome %d outside H^perp" name y;
            counts.(y) <- counts.(y) + 1
          done;
          let e = float_of_int draws /. float_of_int k in
          let stat = ref 0.0 in
          Array.iteri
            (fun y c ->
              if in_perp.(y) then
                let d = float_of_int c -. e in
                stat := !stat +. (d *. d /. e))
            counts;
          let df = float_of_int (k - 1) in
          let gate = df +. (6.0 *. sqrt (2.0 *. df)) in
          if !stat > gate then Alcotest.failf "%s: chi2 %.1f exceeds %.1f" name !stat gate)
        [ Backend.Dense; Backend.Sparse; Backend.Symbolic ])
    [
      ([| 4; 6 |], [ [| 2; 3 |] ]);
      ([| 36; 120 |], [ [| 3; 5 |]; [| 0; 6 |] ]);
    ]

(* The service cache budgets preps by prep_bytes; it must track the
   real heap footprint of the forced tables. *)
let test_prep_bytes () =
  List.iter
    (fun (backend, dims, moduli) ->
      let f x = State.encode moduli (Array.map2 (fun xi m -> xi mod m) x moduli) in
      let p = Coset_state.prep ~backend ~dims ~f () in
      Coset_state.prep_force p;
      let starts, _ = Coset_state.prep_buckets p in
      checki "cosets" (Array.fold_left ( * ) 1 moduli) (Array.length starts - 1);
      let heap = Sys.word_size / 8 * Obj.reachable_words (Obj.repr p) in
      let reported = Coset_state.prep_bytes p in
      let ratio = float_of_int reported /. float_of_int heap in
      if Float.abs (ratio -. 1.0) > 0.1 then
        Alcotest.failf "prep_bytes %d vs reachable %d bytes" reported heap)
    [
      (Backend.Dense, [| 64; 64 |], [| 4; 8 |]);
      (Backend.Sparse, [| 256; 256 |], [| 16; 64 |]);
    ]

(* Coset oracles on the shapes of the sparse benchmark and the served
   mix, each a homomorphism onto a small group so its fibres are the
   cosets of its kernel. *)
let pin_shapes =
  [
    ("Z_1024xZ_256", [| 1024; 256 |], fun x -> (x.(0) mod 64) + (64 * ((x.(0) + (3 * x.(1))) mod 16)));
    ("Z_196xZ_100", [| 196; 100 |], fun x -> (x.(0) mod 14) + (14 * ((x.(0) + (3 * x.(1))) mod 4)));
    ( "Z_4^9",
      Array.make 9 4,
      fun x ->
        ((x.(0) + x.(1) + (2 * x.(2))) mod 4)
        + (4 * ((x.(3) + (3 * x.(4)) + x.(8)) mod 4))
        + (16 * ((x.(5) + x.(6) + x.(7)) mod 2)) );
    ("Z_36xZ_1600", [| 36; 1600 |], fun x -> (x.(0) mod 12) + (12 * ((x.(0) + x.(1)) mod 4)));
    ("Z_12xZ_8", [| 12; 8 |], fun x -> ((x.(0) + (2 * x.(1))) mod 4) + (4 * (x.(0) mod 3)));
  ]

(* A multi-wire mixed shape and planted subgroups for the wide pin. *)
let wide_shape =
  ( "Z_64xZ_64xZ_16",
    [| 64; 64; 16 |],
    fun x -> (x.(0) mod 8) + (8 * ((x.(1) + (3 * x.(2))) mod 16)) )

let planted_shapes =
  [
    ("Z_256xZ_64", [| 256; 64 |], [ [| 16; 0 |]; [| 0; 8 |] ]);
    ("Z_36xZ_120", [| 36; 120 |], [ [| 3; 5 |]; [| 0; 6 |] ]);
    ("Z_64xZ_64xZ_16", [| 64; 64; 16 |], [ [| 8; 0; 0 |]; [| 4; 16; 2 |]; [| 0; 0; 4 |] ]);
    ("Z_4096xZ_4096", [| 4096; 4096 |], [ [| 64; 0 |]; [| 0; 128 |] ]);
  ]

(* Digest of 40 draws per shape plus the next RNG word, through
   [sampler_of_prep] on one backend.  [~wide] adds {!wide_shape} to the
   oracle route, 40 planted-route draws per {!planted_shapes} entry
   ([sampler_with_subgroup]), and the ledger's measurement, peak
   support, pruned-amplitude and DFT-fibre counts over the whole run. *)
let pin_digest ?(wide = false) backend =
  if wide then Metrics.reset ();
  let buf = Buffer.create 4096 in
  let add_draws name rng draw =
    Buffer.add_string buf name;
    for _ = 1 to 40 do
      Array.iter (fun v -> Buffer.add_string buf (string_of_int v ^ ",")) (draw rng);
      Buffer.add_char buf ';'
    done;
    Buffer.add_string buf (string_of_int (Random.State.bits rng))
  in
  List.iteri
    (fun i (name, dims, f) ->
      let p = Coset_state.prep ~backend ~dims ~f () in
      add_draws name (Random.State.make [| 0x5eed; i |])
        (Coset_state.sampler_of_prep p ~queries:(Query.create ()) ()))
    (if wide then pin_shapes @ [ wide_shape ] else pin_shapes);
  if wide then begin
    List.iteri
      (fun i (name, dims, subgroup) ->
        add_draws name (Random.State.make [| 0x5eed; 0x91a; i |])
          (Coset_state.sampler_with_subgroup ~backend ~dims ~subgroup
             ~queries:(Query.create ()) ()))
      planted_shapes;
    let m = Metrics.snapshot () in
    List.iter
      (fun v -> Buffer.add_string buf (string_of_int v ^ ";"))
      [
        m.Metrics.measurements; m.Metrics.peak_support; m.Metrics.pruned_amps;
        m.Metrics.dft_fibres;
      ]
  end;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Recorded before the sort-free sparse kernel, the prep-owned Fourier
   plans and the odometer prep pass landed: all three must leave every
   outcome and the RNG stream untouched.  The wide sparse digest was
   recorded before the sparse backend shed its circuit kernels, which
   must leave the sampling routes' draws and ledger untouched. *)
let test_same_seed_pin () =
  Alcotest.(check string) "sparse digest" "d67af42df20f609063e67a5cffc6a4f0" (pin_digest Backend.Sparse);
  Alcotest.(check string) "dense digest" "d67af42df20f609063e67a5cffc6a4f0" (pin_digest Backend.Dense);
  Alcotest.(check string) "wide sparse digest" "42783b90dfcc1b02f7a8ac520a499036"
    (pin_digest ~wide:true Backend.Sparse)

(* Digest of 40 draws per subgroup plus the next RNG word, through
   [sampler_with_subgroup] on the symbolic backend: a dense random
   subgroup of Z_2^128, a dense random subgroup of Z_3^80, and E13's
   pair-shaped subgroup span{e_2i + e_2i+1} of Z_2^120. *)
let symbolic_pin_digest () =
  let gen_rng = Random.State.make [| 0x5b; 128 |] in
  let random_gens ~dims ~count =
    List.init count (fun _ -> Array.map (fun d -> Random.State.int gen_rng d) dims)
  in
  let pair_gens r =
    List.init (r / 2) (fun i -> Array.init r (fun j -> if j / 2 = i then 1 else 0))
  in
  let z2 = Array.make 128 2 and z3 = Array.make 80 3 and pairs = Array.make 120 2 in
  let shapes =
    [
      ("Z_2^128", z2, random_gens ~dims:z2 ~count:40);
      ("Z_3^80", z3, random_gens ~dims:z3 ~count:30);
      ("Z_2^120 pairs", pairs, pair_gens 120);
    ]
  in
  let buf = Buffer.create 65536 in
  List.iteri
    (fun i (name, dims, subgroup) ->
      let draw =
        Coset_state.sampler_with_subgroup ~backend:Backend.Symbolic ~dims ~subgroup
          ~queries:(Query.create ()) ()
      in
      let rng = Random.State.make [| 0x5eed; 0x5b; i |] in
      Buffer.add_string buf name;
      for _ = 1 to 40 do
        Array.iter (fun v -> Buffer.add_string buf (string_of_int v ^ ",")) (draw rng);
        Buffer.add_char buf ';'
      done;
      Buffer.add_string buf (string_of_int (Random.State.bits rng)))
    shapes;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Recorded before the whole-register Fourier sweep and the row-sparse
   HNF steps landed: both must leave every symbolic outcome and the RNG
   stream untouched. *)
let test_symbolic_seed_pin () =
  Alcotest.(check string) "symbolic digest" "634fda6a70013bea08dd180144702f5c"
    (symbolic_pin_digest ())

(* Digest of [State.measure] (in a shuffled wire order) and
   [State.measure_all] outcomes on symbolic states that the sampler
   never builds: coset states from representatives anywhere in
   [-3d, 3d), their forward and backward images, and forward∘forward,
   whose phase is nonzero; plus a measure_all of each measured
   post-state, and the next RNG word.  A draw from a coset's raw
   representative instead of its canonical one keeps the law uniform,
   so only a pin on the outcomes sees it. *)
let symbolic_states_pin_digest () =
  let gen_rng = Random.State.make [| 0x5b; 0x57 |] in
  let random_gens ~dims ~count =
    List.init count (fun _ -> Array.map (fun d -> Random.State.int gen_rng d) dims)
  in
  let shapes =
    [
      ("Z_2^64", Array.make 64 2, 24);
      ("Z_3^40", Array.make 40 3, 15);
      ("Z_4xZ_6xZ_8xZ_12xZ_9", [| 4; 6; 8; 12; 9 |], 2);
      ("Z_36xZ_120xZ_1", [| 36; 120; 1 |], 1);
    ]
  in
  let rng = Random.State.make [| 0x5eed; 0x57 |] in
  let buf = Buffer.create 65536 in
  let add_outcome x =
    Array.iter (fun v -> Buffer.add_string buf (string_of_int v ^ ",")) x;
    Buffer.add_char buf ';'
  in
  List.iter
    (fun (name, dims, count) ->
      let r = Array.length dims in
      let sub = Backend_symbolic.Subgroup.of_gens ~dims (random_gens ~dims ~count) in
      let all = List.init r Fun.id in
      Buffer.add_string buf name;
      for _ = 1 to 12 do
        let rep = Array.map (fun d -> Random.State.int gen_rng (6 * d) - (3 * d)) dims in
        let coset = State.of_coset ~backend:Backend.Symbolic sub ~rep in
        let fwd = Qft.forward coset ~wires:all in
        let states =
          [ coset; fwd; Qft.backward coset ~wires:(List.rev all); Qft.forward fwd ~wires:all ]
        in
        List.iter
          (fun st ->
            add_outcome (State.measure_all rng st);
            let wires =
              List.map snd
                (List.sort compare (List.map (fun w -> (Random.State.bits gen_rng, w)) all))
            in
            let x, post = State.measure rng st ~wires in
            add_outcome x;
            add_outcome (State.measure_all rng post))
          states
      done)
    shapes;
  Buffer.add_string buf (string_of_int (Random.State.bits rng));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Recorded before the lazy Fourier rewrite landed: a coset state that
   keeps its representative unreduced must draw exactly what the
   canonical one drew. *)
let test_symbolic_states_pin () =
  Alcotest.(check string) "symbolic states digest" "18897894f60e4a70ff71532623fe428f" (symbolic_states_pin_digest ())

(* The bucket tables as the State.decode loop built them before the
   odometer pass: ids in order of first appearance, buckets ascending. *)
let decode_loop_buckets ~dims ~f =
  let total = Array.fold_left ( * ) 1 dims in
  let ids = Hashtbl.create 64 in
  let tag =
    Array.init total (fun idx ->
        let t = f (State.decode dims idx) in
        match Hashtbl.find_opt ids t with
        | Some id -> id
        | None ->
            let id = Hashtbl.length ids in
            Hashtbl.add ids t id;
            id)
  in
  let k = Hashtbl.length ids in
  let starts = Array.make (k + 1) 0 in
  Array.iter (fun id -> starts.(id + 1) <- starts.(id + 1) + 1) tag;
  for c = 0 to k - 1 do
    starts.(c + 1) <- starts.(c + 1) + starts.(c)
  done;
  let fill = Array.sub starts 0 k and members = Array.make total 0 in
  Array.iteri
    (fun idx id ->
      members.(fill.(id)) <- idx;
      fill.(id) <- fill.(id) + 1)
    tag;
  (starts, members)

let test_prep_tables_match_decode_loop () =
  let shapes =
    pin_shapes
    @ [
        ("Z_1xZ_5xZ_1", [| 1; 5; 1 |], fun x -> x.(1) mod 5);
        ("Z_3xZ_1xZ_4", [| 3; 1; 4 |], fun x -> (7 * x.(0)) + (x.(2) mod 2));
        (* injective: 4096 cosets, so the id table grows several times *)
        ("Z_64xZ_64 injective", [| 64; 64 |], fun x -> (64 * x.(0)) + x.(1));
        (* 1024 cosets met first in rows 0..15 and met again in every
           later row, so an entry a growth lost would show *)
        ("Z_64xZ_64 rows mod 16", [| 64; 64 |], fun x -> (64 * (x.(0) mod 16)) + x.(1));
        (* the extreme ints as tags: no key can mark an empty slot *)
        ( "Z_4xZ_3 extreme tags",
          [| 4; 3 |],
          fun x -> [| min_int; max_int; -1; 0 |].((x.(0) + x.(1)) mod 4) );
        (* tags equal modulo 2^40, negatives included: a hash that read
           only the low bits would send them all to one probe chain *)
        ( "Z_32xZ_32 tags = 5 mod 2^40",
          [| 32; 32 |],
          fun x -> (((x.(0) * 7) + (x.(1) mod 4) - 60) lsl 40) + 5 );
      ]
  in
  List.iter
    (fun (name, dims, f) ->
      (* [f] borrows each tuple for the call only, so it keeps a copy:
         same points, same order *)
      let seen = ref [] in
      let f' x =
        seen := Array.copy x :: !seen;
        f x
      in
      let p = Coset_state.prep ~backend:Backend.Sparse ~dims ~f:f' () in
      let starts, members = Coset_state.prep_buckets p in
      let starts', members' = decode_loop_buckets ~dims ~f in
      checkb (name ^ " starts") true (starts = starts');
      checkb (name ^ " members") true (members = members');
      let total = Array.length members in
      checkb (name ^ " f called in index order") true
        (List.rev !seen = List.init total (State.decode dims)))
    shapes

(* The tagging pass hands [f] the odometer's own tuple, borrowed for
   the call, so an oracle that allocates nothing makes the O(|A|) pass
   allocate nothing per element: on Z_4^9 (262,144 elements) a copied
   9-tuple would cost 10 minor words each. *)
let test_prep_allocates_no_tuple () =
  Metrics.set_tracer None;
  let dims = Array.make 9 4 in
  let f x = x.(0) + (4 * (x.(8) land 1)) in
  let total = Array.fold_left ( * ) 1 dims in
  let before = Gc.minor_words () in
  Coset_state.prep_force (Coset_state.prep ~backend:Backend.Sparse ~dims ~f ());
  let per_element = (Gc.minor_words () -. before) /. float_of_int total in
  checkb (Printf.sprintf "prep allocates %.3f <= 0.1 minor words per element" per_element) true
    (per_element <= 0.1)

(* [Random.State.full_int] must replay [Random.State.int]'s stream for
   every bound below 2^30 — the digest was recorded from [int] — so
   switching the representative draws to it keeps every seed's
   outcome. *)
let test_full_int_stream_pin () =
  let bound k = 1 + (k * 5381 mod ((1 lsl 30) - 1)) in
  let rng = Random.State.make [| 0x1a7; 30 |] in
  let buf = Buffer.create (1 lsl 20) in
  for k = 0 to 199_999 do
    Buffer.add_string buf (string_of_int (Random.State.full_int rng (bound k)));
    Buffer.add_char buf ','
  done;
  Buffer.add_string buf (string_of_int (Random.State.bits rng));
  Alcotest.(check string) "full_int stream = recorded int stream" "e07648d0901b475d429447ef6a53dde2"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  (* and bounds past 2^30, which Random.State.int rejects, draw in range *)
  let rng = Random.State.make [| 3 |] in
  List.iter
    (fun b ->
      for _ = 1 to 1000 do
        let v = Random.State.full_int rng b in
        if v < 0 || v >= b then Alcotest.failf "full_int %d out of range: %d" b v
      done)
    [ (1 lsl 30) + 3; 1073741827; (1 lsl 40) + 7 ]

let test_state_valued_sampler () =
  (* Lemma 9: a hiding function returning unit vectors instead of
     tags; outcome distribution must match the tag-based sampler *)
  let dims = [| 2; 2 |] in
  let gens = [| 1; 1 |] in
  (* subgroup {00, 11}: cosets {00,11} and {01,10} *)
  let basis_for x =
    (* orthogonal unit vectors per coset *)
    if (x.(0) + x.(1)) mod 2 = 0 then Linalg.Cvec.basis 2 0 else Linalg.Cvec.basis 2 1
  in
  let queries = Query.create () in
  let draw = Coset_state.sampler_state_valued ~dims ~f:basis_for ~queries () in
  let rng = rng () in
  for _ = 1 to 30 do
    let y = draw rng in
    checkb "in annihilator" true (Qft.character_is_trivial_on ~dims y gens)
  done;
  checki "queries" 30 (Query.count queries)

let test_gate_level_simon () =
  (* Simon's algorithm built from gates: |0>^n |0>^n, H on the first n
     qubits, the oracle as a reversible basis map, H again, measure.
     The measured x-register outcomes are orthogonal (mod 2) to the
     secret mask; the annihilator of their span (Zmatrix over Z_2^n)
     recovers it. *)
  let rng = rng () in
  let n = 4 in
  let s = [| 1; 0; 1; 1 |] in
  let s_int = State.encode (Array.make n 2) s in
  let f x = min x (x lxor s_int) in
  let dims = Array.make (2 * n) 2 in
  let x_wires = List.init n (fun i -> i) in
  let base = State.create dims in
  let with_h =
    List.fold_left (fun st w -> State.apply_wire st ~wire:w Gates.h) base x_wires
  in
  let oracle st =
    State.apply_basis_map st (fun bits ->
        let x = State.encode (Array.make n 2) (Array.sub bits 0 n) in
        let y = State.encode (Array.make n 2) (Array.sub bits n n) in
        let y' = y lxor f x in
        Array.append (Array.sub bits 0 n) (State.decode (Array.make n 2) y'))
  in
  let final =
    List.fold_left (fun st w -> State.apply_wire st ~wire:w Gates.h) (oracle with_h) x_wires
  in
  let samples =
    List.init 24 (fun _ ->
        let outcome, _ = State.measure rng final ~wires:x_wires in
        outcome)
  in
  (* every sample is orthogonal to s *)
  List.iter
    (fun y ->
      checki "orthogonal to mask" 0 (Array.fold_left ( + ) 0 (Array.map2 ( * ) y s) mod 2))
    samples;
  (* the annihilator of the sample span in Z_2^n is exactly {0, s} *)
  let z2 = Array.make n 2 in
  let kernel =
    Numtheory.Zmatrix.(
      hnf_elements (hnf_dual (hnf_prepare ~dims:z2 (hnf_basis ~dims:z2 samples))))
  in
  checkb "mask recovered" true
    (List.sort compare kernel = List.sort compare [ Array.make n 0; s ])

(* ------------------------------------------------------------------ *)
(* Shor                                                               *)
(* ------------------------------------------------------------------ *)

let test_period_finding_exact () =
  let rng = rng () in
  List.iter
    (fun r ->
      let queries = Query.create () in
      match
        Shor.period_finding rng ~f:(fun k -> k mod r) ~period_bound:40 ~queries ~max_rounds:64
      with
      | Some found -> checki (Printf.sprintf "period %d" r) r found
      | None -> Alcotest.fail (Printf.sprintf "period %d not found" r))
    [ 1; 2; 3; 6; 7; 12; 15; 16; 33; 40 ]

let test_period_query_counts () =
  let rng = rng () in
  let queries = Query.create () in
  (match Shor.period_finding rng ~f:(fun k -> k mod 12) ~period_bound:40 ~queries ~max_rounds:64 with
  | Some _ -> ()
  | None -> Alcotest.fail "period");
  checkb "few queries" true (Query.count queries <= 64)

let test_find_order_modular () =
  let rng = rng () in
  let queries = Query.create () in
  (* order of 2 mod 25 is 20 *)
  match Shor.find_order rng ~pow:(fun k -> Numtheory.Arith.powmod 2 k 25) ~order_bound:25 ~queries with
  | Some o -> checki "ord(2 mod 25)" 20 o
  | None -> Alcotest.fail "order not found"

let test_factor_semiprimes () =
  let rng = rng () in
  List.iter
    (fun n ->
      match Shor.factor rng n with
      | Some (a, b) ->
          checki (Printf.sprintf "factor %d" n) n (a * b);
          checkb "nontrivial" true (a > 1 && b > 1)
      | None -> Alcotest.fail (Printf.sprintf "factor %d failed" n))
    [ 15; 21; 33; 35; 55; 77; 91; 221 ]

let test_factor_rejects_prime () =
  let rng = rng () in
  Alcotest.check_raises "prime" (Invalid_argument "Shor.factor: prime input") (fun () ->
      ignore (Shor.factor rng 101))

let test_factor_even () =
  let rng = rng () in
  match Shor.factor rng 30 with
  | Some (2, 15) -> ()
  | _ -> Alcotest.fail "even shortcut"

let () =
  Alcotest.run "quantum"
    [
      ( "state",
        [
          Alcotest.test_case "encode/decode" `Quick test_encode_decode;
          Alcotest.test_case "create norm" `Quick test_create_norm;
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "tensor" `Quick test_tensor;
          Alcotest.test_case "apply_wire norm" `Quick test_apply_wire_preserves_norm;
          Alcotest.test_case "apply_wires = kron" `Quick test_apply_wires_matches_kron;
          Alcotest.test_case "apply_wires order" `Quick test_apply_wires_order;
          Alcotest.test_case "basis map cnot" `Quick test_basis_map_cnot;
          Alcotest.test_case "basis map bijection" `Quick test_basis_map_rejects_non_bijection;
          Alcotest.test_case "oracle add" `Quick test_oracle_add;
          Alcotest.test_case "measure collapse" `Quick test_measure_collapse;
          Alcotest.test_case "measure statistics" `Quick test_measure_statistics;
          Alcotest.test_case "marginals" `Quick test_probabilities_marginal;
          Alcotest.test_case "size guard" `Quick test_register_too_large;
          Alcotest.test_case "dense measure_all = measure" `Quick test_measure_all_fast_path;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "gates unitary" `Quick test_gates_unitary;
          Alcotest.test_case "h involution" `Quick test_hadamard_involution;
          Alcotest.test_case "qft circuit = dft" `Quick test_qft_circuit_matches_dft;
          Alcotest.test_case "qft inverse" `Quick test_qft_inverse_circuit;
          Alcotest.test_case "approximate qft" `Quick test_approximate_qft_close;
          Alcotest.test_case "run = matrix" `Quick test_circuit_run_vs_matrix;
          Alcotest.test_case "construction order" `Quick test_construction_order;
        ] );
      ( "qft",
        [
          Alcotest.test_case "forward/backward" `Quick test_qft_forward_backward;
          Alcotest.test_case "character trivial" `Quick test_character_trivial;
          Alcotest.test_case "character trivial past int63" `Quick test_character_trivial_large;
          Alcotest.test_case "character float consistency" `Quick test_character_matches_float;
        ] );
      ( "coset",
        [
          Alcotest.test_case "samples in annihilator" `Quick test_sampler_in_annihilator;
          Alcotest.test_case "fast = full (distribution)" `Slow test_sampler_full_matches_fast;
          Alcotest.test_case "annihilator recovery" `Quick test_annihilator_subgroup_recovers;
          Alcotest.test_case "empty samples" `Quick test_annihilator_empty_samples;
          Alcotest.test_case "gate-level simon" `Quick test_gate_level_simon;
          Alcotest.test_case "size guard" `Quick test_coset_sampler_size_guard;
          Alcotest.test_case "oracle route backend (omitted past 2^22)" `Quick
            test_oracle_route_backend;
          Alcotest.test_case "planted route backend" `Quick test_planted_route_backend;
          Alcotest.test_case "state-valued oracle (lemma 9)" `Quick test_state_valued_sampler;
          Alcotest.test_case "coset draw law (chi-squared)" `Quick test_coset_draw_law;
          Alcotest.test_case "subgroup sampler exact law" `Quick test_subgroup_sampler_law;
          Alcotest.test_case "prep_bytes = heap footprint" `Quick test_prep_bytes;
          Alcotest.test_case "same-seed pin (sampler_of_prep)" `Quick test_same_seed_pin;
          Alcotest.test_case "same-seed pin (symbolic sampler)" `Quick test_symbolic_seed_pin;
          Alcotest.test_case "same-seed pin (symbolic states)" `Quick test_symbolic_states_pin;
          Alcotest.test_case "prep tables = decode loop" `Quick test_prep_tables_match_decode_loop;
          Alcotest.test_case "prep allocates no tuple" `Quick test_prep_allocates_no_tuple;
          Alcotest.test_case "full_int stream pin" `Quick test_full_int_stream_pin;
        ] );
      ( "shor",
        [
          Alcotest.test_case "period finding" `Quick test_period_finding_exact;
          Alcotest.test_case "query counts" `Quick test_period_query_counts;
          Alcotest.test_case "order finding" `Quick test_find_order_modular;
          Alcotest.test_case "factor semiprimes" `Slow test_factor_semiprimes;
          Alcotest.test_case "factor rejects primes" `Quick test_factor_rejects_prime;
          Alcotest.test_case "factor even" `Quick test_factor_even;
        ] );
    ]
