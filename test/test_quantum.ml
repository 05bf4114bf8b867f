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
  checki "mixed radix" ((2 * 8) + (1 * 4) + 3) (State.encode dims [| 2; 1; 3 |])

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

let dense_of_amps dims amps = State.of_amplitudes ~backend:Backend.Dense dims amps

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
    (fun () -> ignore (State.create ~backend:Backend.Dense (Array.make 30 4)));
  (* under Auto the same register now falls back to the sparse backend
     (under a session default of Sparse/Symbolic it simply stays on
     that backend — anything but dense) *)
  let st = State.create (Array.make 30 4) in
  checkb "sparse fallback" true (State.backend st <> Backend.Dense);
  checki "singleton support" 1 (State.support_size st)

(* ------------------------------------------------------------------ *)
(* Gates and circuits                                                 *)
(* ------------------------------------------------------------------ *)

let test_gates_unitary () =
  List.iter
    (fun (name, g) -> checkb name true (Cmat.is_unitary g))
    [
      ("h", Gates.h); ("x", Gates.x); ("y", Gates.y); ("z", Gates.z);
      ("s", Gates.s); ("t", Gates.t); ("cnot", Gates.cnot); ("swap", Gates.swap);
      ("rk 3", Gates.rk 3); ("phase", Gates.phase 0.7);
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
      let d = Cx.abs (Cx.sub exact.(i).(j) approx.(i).(j)) in
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
    let y = Coset_state.sample rng ~dims ~f ~queries in
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
  let h_fast = histo Coset_state.sample
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
  let samples = List.init 30 (fun _ -> Coset_state.sample rng ~dims ~f ~queries) in
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
           trips whatever backend HSP_BACKEND selects *)
        (Coset_state.sample rng ~dims:(Array.make 27 2) ~f:(fun _ -> 0) ~queries))

(* The prep's coset draw, checked exactly: a tag function with unequal
   fibres (sizes 3, 6, 15 over Z_4 x Z_6, interleaved in index order)
   is no hiding function, so the Fourier outcome law is the mixture
   P(y) = sum_c (|c| / |A|) |<chi_y | c>|^2 = sum_c |sum_{x in c} chi_y(x)|^2 / |A|^2,
   which pins the |c| / |A| weight of every coset.  On 40,000 draws a
   uniform choice of coset scores ~5000 on the chi-squared statistic,
   and a bucket start assigned to the previous coset ~150; the gate is
   50 (19 degrees of freedom). *)
let test_coset_draw_law () =
  let dims = [| 4; 6 |] in
  let total = 24 in
  let tag idx = match idx mod 8 with 0 -> 0 | 1 | 2 -> 1 | _ -> 2 in
  let f x = tag (State.encode dims x) in
  let exact = Array.make total 0.0 in
  for y = 0 to total - 1 do
    let yv = State.decode dims y in
    let sums = Array.make 3 Cx.zero in
    for x = 0 to total - 1 do
      sums.(tag x) <- Cx.add sums.(tag x) (Qft.character ~dims yv (State.decode dims x))
    done;
    exact.(y) <-
      Array.fold_left (fun acc z -> acc +. Cx.norm2 z) 0.0 sums /. float_of_int (total * total)
  done;
  let n = 40_000 in
  List.iter
    (fun backend ->
      let draw = Coset_state.sampler ~backend ~dims ~f ~queries:(Query.create ()) () in
      let rng = Random.State.make [| 0xc05e7 |] in
      let counts = Array.make total 0 in
      for _ = 1 to n do
        let y = State.encode dims (draw rng) in
        counts.(y) <- counts.(y) + 1
      done;
      let stat = ref 0.0 in
      Array.iteri
        (fun y p ->
          if p < 1e-12 then begin
            if counts.(y) > 0 then Alcotest.failf "outcome %d has probability 0" y
          end
          else
            let e = float_of_int n *. p in
            let d = float_of_int counts.(y) -. e in
            stat := !stat +. (d *. d /. e))
        exact;
      if !stat > 50.0 then
        Alcotest.failf "%s: chi2 %.1f exceeds 50" (Backend.choice_to_string backend) !stat)
    [ Backend.Dense; Backend.Sparse ]

(* The service cache budgets preps by prep_bytes; it must track the
   real heap footprint of the forced tables. *)
let test_prep_bytes () =
  List.iter
    (fun (backend, dims, moduli) ->
      let f x = State.encode moduli (Array.map2 (fun xi m -> xi mod m) x moduli) in
      let p = Coset_state.prep ~backend ~dims ~f () in
      Coset_state.prep_force p;
      checki "cosets" (Array.fold_left ( * ) 1 moduli) (Coset_state.prep_cosets p);
      let heap = Sys.word_size / 8 * Obj.reachable_words (Obj.repr p) in
      let reported = Coset_state.prep_bytes p in
      let ratio = float_of_int reported /. float_of_int heap in
      if Float.abs (ratio -. 1.0) > 0.1 then
        Alcotest.failf "prep_bytes %d vs reachable %d bytes" reported heap)
    [
      (Backend.Dense, [| 64; 64 |], [| 4; 8 |]);
      (Backend.Sparse, [| 256; 256 |], [| 16; 64 |]);
    ]

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

let test_phase_estimation_exact () =
  let rng = rng () in
  (* exactly representable phase 3/8 with a 3-bit register: certain *)
  let u =
    [| [| Cx.one; Cx.zero |]; [| Cx.zero; Cx.root_of_unity 8 3 |] |]
  in
  let psi = Cvec.basis 2 1 in
  for _ = 1 to 10 do
    let phi = Phase_estimation.estimate rng ~precision_bits:3 ~unitary:u ~eigenstate:psi in
    checkb "exact 3/8" true (Float.abs (phi -. 0.375) < 1e-12)
  done;
  (* the |0> eigenstate has phase 0 *)
  let phi = Phase_estimation.estimate rng ~precision_bits:4 ~unitary:u ~eigenstate:(Cvec.basis 2 0) in
  checkb "zero phase" true (phi = 0.0)

let test_phase_estimation_rounding () =
  let rng = rng () in
  (* phi = 1/3 is not representable: the modal 5-bit outcome is within
     2^-5 of 1/3 *)
  let u = [| [| Cx.one; Cx.zero |]; [| Cx.zero; Cx.root_of_unity 3 1 |] |] in
  let psi = Cvec.basis 2 1 in
  let phi =
    Phase_estimation.estimate_exact rng ~precision_bits:5 ~unitary:u ~eigenstate:psi ~trials:50
  in
  checkb "close to 1/3" true (Float.abs (phi -. (1.0 /. 3.0)) <= 1.0 /. 32.0)

let test_phase_estimation_rejects () =
  let rng = rng () in
  let u = Gates.h in
  (* |0> is not an eigenvector of H *)
  Alcotest.check_raises "non-eigenvector"
    (Invalid_argument "Phase_estimation.estimate: not an eigenvector") (fun () ->
      ignore
        (Phase_estimation.estimate rng ~precision_bits:3 ~unitary:u
           ~eigenstate:(Cvec.basis 2 0)))

let test_gate_level_simon () =
  (* Simon's algorithm built from gates: |0>^n |0>^n, H on the first n
     qubits, the oracle as a reversible basis map, H again, measure.
     The measured x-register outcomes are orthogonal (mod 2) to the
     secret mask; GF(2) kernel post-processing recovers it. *)
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
  List.iter (fun y -> checki "orthogonal to mask" 0 (Linalg.Gf2.dot y s)) samples;
  (* kernel of the sample span recovers {0, s} *)
  let kernel = Linalg.Gf2.kernel samples in
  checkb "mask recovered" true
    (List.length kernel = 1 && Linalg.Gf2.equal (List.hd kernel) s)

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
        ] );
      ( "qft",
        [
          Alcotest.test_case "forward/backward" `Quick test_qft_forward_backward;
          Alcotest.test_case "character trivial" `Quick test_character_trivial;
          Alcotest.test_case "character float consistency" `Quick test_character_matches_float;
        ] );
      ( "coset",
        [
          Alcotest.test_case "samples in annihilator" `Quick test_sampler_in_annihilator;
          Alcotest.test_case "fast = full (distribution)" `Slow test_sampler_full_matches_fast;
          Alcotest.test_case "annihilator recovery" `Quick test_annihilator_subgroup_recovers;
          Alcotest.test_case "empty samples" `Quick test_annihilator_empty_samples;
          Alcotest.test_case "gate-level simon" `Quick test_gate_level_simon;
          Alcotest.test_case "phase estimation exact" `Quick test_phase_estimation_exact;
          Alcotest.test_case "phase estimation rounding" `Quick test_phase_estimation_rounding;
          Alcotest.test_case "phase estimation rejects" `Quick test_phase_estimation_rejects;
          Alcotest.test_case "size guard" `Quick test_coset_sampler_size_guard;
          Alcotest.test_case "state-valued oracle (lemma 9)" `Quick test_state_valued_sampler;
          Alcotest.test_case "coset draw law (chi-squared)" `Quick test_coset_draw_law;
          Alcotest.test_case "prep_bytes = heap footprint" `Quick test_prep_bytes;
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
