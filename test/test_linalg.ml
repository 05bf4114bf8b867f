(* Unit and property tests for the complex / GF(2) linear algebra. *)

open Linalg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Cx                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cx_roots_of_unity () =
  checkb "w_4^1 = i" true (Cx.approx_equal (Cx.root_of_unity 4 1) Cx.i);
  checkb "w_2^1 = -1" true (Cx.approx_equal (Cx.root_of_unity 2 1) (Cx.neg Cx.one));
  checkb "w_n^0 = 1" true (Cx.approx_equal (Cx.root_of_unity 7 0) Cx.one);
  checkb "w_n^n = 1" true (Cx.approx_equal (Cx.root_of_unity 7 7) Cx.one);
  checkb "negative exponent" true
    (Cx.approx_equal (Cx.root_of_unity 8 (-1)) (Cx.root_of_unity 8 7));
  (* sum of all n-th roots vanishes *)
  let n = 9 in
  let s = ref Cx.zero in
  for k = 0 to n - 1 do
    s := Cx.add !s (Cx.root_of_unity n k)
  done;
  checkb "roots sum to zero" true (Cx.approx_equal !s Cx.zero)

let test_cx_arith () =
  let a = Cx.make 1.0 2.0 and b = Cx.make 3.0 (-1.0) in
  checkb "mul" true (Cx.approx_equal (Cx.mul a b) (Cx.make 5.0 5.0));
  checkb "conj" true (Cx.approx_equal (Cx.conj a) (Cx.make 1.0 (-2.0)));
  checkb "norm2" true (Float.abs (Cx.norm2 a -. 5.0) < 1e-12);
  checkb "div roundtrip" true (Cx.approx_equal (Cx.mul (Cx.div a b) b) a)

(* ------------------------------------------------------------------ *)
(* Cvec                                                               *)
(* ------------------------------------------------------------------ *)

let test_cvec_basis_dot () =
  let e0 = Cvec.basis 4 0 and e2 = Cvec.basis 4 2 in
  checkb "orthogonal" true (Cx.approx_equal (Cvec.dot e0 e2) Cx.zero);
  checkb "unit" true (Cx.approx_equal (Cvec.dot e2 e2) Cx.one)

let test_cvec_normalize () =
  let v = [| Cx.re 3.0; Cx.re 4.0 |] in
  let n = Cvec.normalize v in
  checkb "unit norm" true (Float.abs (Cvec.norm n -. 1.0) < 1e-12);
  Alcotest.check_raises "zero vector" (Invalid_argument "Cvec.normalize: zero vector")
    (fun () -> ignore (Cvec.normalize (Cvec.make 3)))

let test_cvec_dot_conjugate_linear () =
  let v = [| Cx.make 1.0 1.0; Cx.re 2.0 |] and w = [| Cx.i; Cx.make 0.5 0.5 |] in
  let d1 = Cvec.dot v w and d2 = Cvec.dot w v in
  checkb "hermitian symmetry" true (Cx.approx_equal d1 (Cx.conj d2))

(* ------------------------------------------------------------------ *)
(* Cmat                                                               *)
(* ------------------------------------------------------------------ *)

let test_dft_unitary () =
  List.iter
    (fun n -> checkb (Printf.sprintf "dft %d unitary" n) true (Cmat.is_unitary (Cmat.dft n)))
    [ 1; 2; 3; 4; 5; 8; 12 ]

let test_dft_values () =
  let d = Cmat.dft 2 in
  let s = 1.0 /. sqrt 2.0 in
  checkb "hadamard-like" true
    (Cx.approx_equal d.(1).(1) (Cx.re (-.s)) && Cx.approx_equal d.(0).(1) (Cx.re s))

let test_kron () =
  let a = Cmat.dft 2 and b = Cmat.identity 3 in
  let k = Cmat.kron a b in
  checki "rows" 6 (Cmat.rows k);
  checkb "unitary" true (Cmat.is_unitary k);
  (* kron of dfts is the per-wire qft on a product group *)
  let k2 = Cmat.kron (Cmat.dft 2) (Cmat.dft 3) in
  checkb "kron dft unitary" true (Cmat.is_unitary k2)

let test_permutation_matrix () =
  let p = Cmat.permutation 3 (fun k -> (k + 1) mod 3) in
  let v = Cvec.basis 3 0 in
  let w = Cmat.apply p v in
  checkb "maps |0> to |1>" true (Cx.approx_equal w.(1) Cx.one);
  checkb "perm unitary" true (Cmat.is_unitary p);
  Alcotest.check_raises "not a bijection"
    (Invalid_argument "Cmat.permutation: not a bijection") (fun () ->
      ignore (Cmat.permutation 3 (fun _ -> 0)))

let test_adjoint_mul () =
  let a = Cmat.dft 4 in
  let prod = Cmat.mul (Cmat.adjoint a) a in
  checkb "a* a = I" true (Cmat.approx_equal prod (Cmat.identity 4))

(* ------------------------------------------------------------------ *)
(* Fft                                                                *)
(* ------------------------------------------------------------------ *)

let test_fft_matches_dft () =
  let rng = Random.State.make [| 5 |] in
  List.iter
    (fun n ->
      let v =
        Array.init n (fun _ ->
            Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))
      in
      let fast = Array.copy v in
      Fft.transform fast;
      let dense = Cmat.apply (Cmat.dft n) v in
      checkb (Printf.sprintf "fft %d" n) true (Cvec.approx_equal ~eps:1e-9 fast dense))
    [ 1; 2; 4; 8; 16; 64; 256 ]

let test_fft_inverse () =
  let rng = Random.State.make [| 6 |] in
  let n = 128 in
  let v =
    Array.init n (fun _ ->
        Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))
  in
  let w = Array.copy v in
  Fft.transform w;
  Fft.transform ~inverse:true w;
  checkb "roundtrip" true (Cvec.approx_equal ~eps:1e-9 w v)

let test_fft_rejects_non_pow2 () =
  Alcotest.check_raises "length 3" (Invalid_argument "Fft.transform: length not a power of two")
    (fun () -> Fft.transform (Array.make 3 Cx.zero))

let test_bluestein_matches_dft () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun n ->
      let v =
        Array.init n (fun _ ->
            Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))
      in
      let fast = Array.copy v in
      Fft.dft_any fast;
      let dense = Cmat.apply (Cmat.dft n) v in
      checkb (Printf.sprintf "bluestein %d" n) true (Cvec.approx_equal ~eps:1e-8 fast dense);
      let inv = Array.copy fast in
      Fft.dft_any ~inverse:true inv;
      checkb (Printf.sprintf "inverse %d" n) true (Cvec.approx_equal ~eps:1e-8 inv v))
    [ 1; 2; 3; 5; 6; 7; 12; 17; 30; 100; 255 ]

(* Fft.plan on split float planes, against the dense unitary DFT.  The
   reference for lengths past 256 multiplies row by row with the same
   entries Cmat.dft builds (materialising a 1600 x 1600 boxed matrix
   would cost ~80 MB). *)
let dense_dft ?(inverse = false) v =
  let n = Array.length v in
  if n <= 256 then
    let m = Cmat.dft n in
    Cmat.apply (if inverse then Cmat.adjoint m else m) v
  else
    let s = 1.0 /. sqrt (float_of_int n) in
    Array.init n (fun j ->
        let acc = ref Cx.zero in
        Array.iteri
          (fun k x ->
            let w = Cx.root_of_unity n (j * k) in
            acc := Cx.add !acc (Cx.mul (if inverse then Cx.conj w else w) x))
          v;
        Cx.scale s !acc)

let random_vec rng n =
  let u () = Random.State.float rng 2.0 -. 1.0 in
  Array.init n (fun _ ->
      let re = u () in
      Cx.make re (u ()))

(* Run a plan over planes two entries longer than the plan, holding
   sentinels that exec must leave alone. *)
let plan_apply p ~inverse v =
  let n = Array.length v in
  let re = Array.make (n + 2) 7.0 and im = Array.make (n + 2) (-7.0) in
  Array.iteri
    (fun i z ->
      re.(i) <- z.Complex.re;
      im.(i) <- z.Complex.im)
    v;
  Fft.exec p ~inverse (Fft.scratch p) re im;
  if re.(n) <> 7.0 || im.(n + 1) <> -7.0 then Alcotest.failf "exec %d wrote past the plan" n;
  Array.init n (fun i -> Cx.make re.(i) im.(i))

let max_err a b =
  let e = ref 0.0 in
  Array.iteri (fun i z -> e := Float.max !e (Cx.abs (Cx.sub z b.(i)))) a;
  !e

let plan_lengths = List.init 70 (fun i -> i + 1) @ [ 100; 120; 196; 1024; 1600 ]

let test_plan_matches_dft () =
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun n ->
      let p = Fft.plan n in
      let v = random_vec rng n in
      let tol = 1e-10 *. sqrt (float_of_int n) in
      List.iter
        (fun inverse ->
          let e = max_err (plan_apply p ~inverse v) (dense_dft ~inverse v) in
          if e > tol then
            Alcotest.failf "n=%d inverse=%b: error %.3g exceeds %.3g" n inverse e tol)
        [ false; true ];
      (* F and F* coincide only for n <= 2: an ignored ~inverse flag
         must show here *)
      if n >= 3 then begin
        let e = max_err (plan_apply p ~inverse:false v) (plan_apply p ~inverse:true v) in
        if e < 1e-3 then Alcotest.failf "n=%d: forward and inverse agree (%.3g)" n e
      end)
    plan_lengths

let test_plan_rejects () =
  Alcotest.check_raises "length 0" (Invalid_argument "Fft.plan: length < 1") (fun () ->
      ignore (Fft.plan 0));
  let p = Fft.plan 5 in
  Alcotest.check_raises "short planes" (Invalid_argument "Fft.exec: planes shorter than the plan")
    (fun () -> Fft.exec p ~inverse:false (Fft.scratch p) (Array.make 4 0.0) (Array.make 5 0.0));
  Alcotest.check_raises "foreign scratch" (Invalid_argument "Fft.exec: scratch of a smaller plan")
    (fun () ->
      Fft.exec (Fft.plan 17) ~inverse:false (Fft.scratch p) (Array.make 17 0.0)
        (Array.make 17 0.0))

(* ------------------------------------------------------------------ *)
(* Gf2                                                                *)
(* ------------------------------------------------------------------ *)

let test_gf2_rref_rank () =
  let v a = Array.of_list a in
  checki "rank of basis" 2 (Gf2.rank [ v [ 1; 0; 0 ]; v [ 0; 1; 0 ] ]);
  checki "dependent" 1 (Gf2.rank [ v [ 1; 1; 0 ]; v [ 1; 1; 0 ] ]);
  checki "zero" 0 (Gf2.rank [ v [ 0; 0; 0 ] ]);
  checki "full" 3 (Gf2.rank [ v [ 1; 1; 0 ]; v [ 0; 1; 1 ]; v [ 1; 0; 0 ] ])

let test_gf2_in_span () =
  let v a = Array.of_list a in
  let basis = [ v [ 1; 1; 0 ]; v [ 0; 1; 1 ] ] in
  checkb "sum in span" true (Gf2.in_span basis (v [ 1; 0; 1 ]));
  checkb "not in span" false (Gf2.in_span basis (v [ 1; 0; 0 ]));
  checkb "zero in span" true (Gf2.in_span basis (v [ 0; 0; 0 ]))

let test_gf2_solve () =
  let v a = Array.of_list a in
  let rows = [ v [ 1; 1; 0 ]; v [ 0; 1; 1 ]; v [ 1; 0; 0 ] ] in
  let b = v [ 0; 1; 0 ] in
  (match Gf2.solve rows b with
  | Some x ->
      (* recombine *)
      let acc = ref (Gf2.zero 3) in
      List.iteri (fun i r -> if x.(i) = 1 then acc := Gf2.add !acc r) rows;
      checkb "combination" true (Gf2.equal !acc b)
  | None -> Alcotest.fail "solvable");
  checkb "unsolvable" true (Gf2.solve [ v [ 1; 1 ] ] (v [ 1; 0 ]) = None)

let test_gf2_kernel () =
  let v a = Array.of_list a in
  let rows = [ v [ 1; 1; 0; 0 ]; v [ 0; 0; 1; 1 ] ] in
  let ker = Gf2.kernel rows in
  checki "kernel dim" 2 (List.length ker);
  List.iter
    (fun x -> List.iter (fun r -> checki "orthogonal" 0 (Gf2.dot r x)) rows)
    ker

let test_gf2_kernel_dimension_theorem () =
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 100 do
    let n = 2 + Random.State.int rng 6 in
    let k = 1 + Random.State.int rng 4 in
    let rows = List.init k (fun _ -> Array.init n (fun _ -> Random.State.int rng 2)) in
    let r = Gf2.rank rows in
    checki "rank-nullity" (n - r) (List.length (Gf2.kernel rows));
    (* kernel vectors orthogonal to all rows *)
    List.iter
      (fun x -> List.iter (fun row -> checki "orth" 0 (Gf2.dot row x)) rows)
      (Gf2.kernel rows)
  done

let test_gf2_double_complement () =
  (* kernel of kernel = row space *)
  let rng = Random.State.make [| 10 |] in
  for _ = 1 to 50 do
    let n = 2 + Random.State.int rng 5 in
    let rows = List.init 3 (fun _ -> Array.init n (fun _ -> Random.State.int rng 2)) in
    let ker = Gf2.kernel rows in
    let back = if ker = [] then List.init n (fun j -> Array.init n (fun i -> if i = j then 0 else 0)) else Gf2.kernel ker in
    (* when ker is empty the complement is the whole space; rows span it *)
    if ker <> [] then begin
      List.iter (fun r -> checkb "row in double complement" true (Gf2.in_span back r)) rows;
      checki "dims" (Gf2.rank rows) (Gf2.rank back)
    end
  done

let qcheck_props =
  let open QCheck in
  let vec n = Gen.array_size (Gen.return n) (Gen.int_bound 1) in
  [
    Test.make ~name:"gf2 add self = 0" ~count:200
      (make (vec 6))
      (fun v -> Gf2.is_zero (Gf2.add v v));
    Test.make ~name:"gf2 dot bilinear" ~count:200
      (make Gen.(triple (vec 5) (vec 5) (vec 5)))
      (fun (a, b, c) -> Gf2.dot (Gf2.add a b) c = (Gf2.dot a c + Gf2.dot b c) land 1);
    Test.make ~name:"fft plan: inverse . forward = id" ~count:200
      (make Gen.(pair (int_range 1 300) int))
      (fun (n, seed) ->
        let v = random_vec (Random.State.make [| seed |]) n in
        let p = Fft.plan n in
        max_err (plan_apply p ~inverse:true (plan_apply p ~inverse:false v)) v
        <= 1e-10 *. sqrt (float_of_int n));
    Test.make ~name:"rref idempotent and span-preserving" ~count:200
      (make Gen.(list_size (int_range 1 4) (vec 5)))
      (fun rows ->
        let b = Gf2.rref rows in
        List.for_all (Gf2.in_span b) rows && List.for_all (Gf2.in_span rows) b);
  ]

let () =
  Alcotest.run "linalg"
    [
      ( "cx",
        [
          Alcotest.test_case "roots of unity" `Quick test_cx_roots_of_unity;
          Alcotest.test_case "arithmetic" `Quick test_cx_arith;
        ] );
      ( "cvec",
        [
          Alcotest.test_case "basis/dot" `Quick test_cvec_basis_dot;
          Alcotest.test_case "normalize" `Quick test_cvec_normalize;
          Alcotest.test_case "hermitian dot" `Quick test_cvec_dot_conjugate_linear;
        ] );
      ( "cmat",
        [
          Alcotest.test_case "dft unitary" `Quick test_dft_unitary;
          Alcotest.test_case "dft values" `Quick test_dft_values;
          Alcotest.test_case "kron" `Quick test_kron;
          Alcotest.test_case "permutation" `Quick test_permutation_matrix;
          Alcotest.test_case "adjoint mul" `Quick test_adjoint_mul;
        ] );
      ( "fft",
        [
          Alcotest.test_case "matches dense dft" `Quick test_fft_matches_dft;
          Alcotest.test_case "inverse roundtrip" `Quick test_fft_inverse;
          Alcotest.test_case "rejects non-pow2" `Quick test_fft_rejects_non_pow2;
          Alcotest.test_case "bluestein any length" `Quick test_bluestein_matches_dft;
          Alcotest.test_case "plan matches dense dft" `Quick test_plan_matches_dft;
          Alcotest.test_case "plan argument checks" `Quick test_plan_rejects;
        ] );
      ( "gf2",
        [
          Alcotest.test_case "rref/rank" `Quick test_gf2_rref_rank;
          Alcotest.test_case "in_span" `Quick test_gf2_in_span;
          Alcotest.test_case "solve" `Quick test_gf2_solve;
          Alcotest.test_case "kernel" `Quick test_gf2_kernel;
          Alcotest.test_case "rank-nullity" `Quick test_gf2_kernel_dimension_theorem;
          Alcotest.test_case "double complement" `Quick test_gf2_double_complement;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
