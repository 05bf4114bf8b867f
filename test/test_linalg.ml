(* Unit and property tests for the complex / GF(2) linear algebra; GF(2)
   goes through Zmatrix with every dim 2. *)

open Linalg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Cx                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cx_roots_of_unity () =
  checkb "w_4^1 = i" true (Cx.approx_equal (Cx.root_of_unity 4 1) Complex.i);
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
  checkb "norm2" true (Float.abs (Cx.norm2 a -. 5.0) < 1e-12)

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
  Fft.exec p ~inverse (Fft.scratch p) ~off:0 ~stride:1 ~lanes:1 re im;
  if re.(n) <> 7.0 || im.(n + 1) <> -7.0 then Alcotest.failf "exec %d wrote past the plan" n;
  Array.init n (fun i -> Cx.make re.(i) im.(i))

let max_err a b =
  let e = ref 0.0 in
  Array.iteri (fun i z -> e := Float.max !e (Complex.norm (Complex.sub z b.(i)))) a;
  !e

let plan_lengths = List.init 70 (fun i -> i + 1) @ [ 100; 120; 196; 1024; 1600 ]

(* Run one exec over [Array.length vs] interleaved lanes (entry k of
   lane l at off + k stride + l) in planes full of sentinels, check that
   no entry outside the lanes moved, and return each lane's output. *)
let lanes_apply p ~inverse ~off ~stride vs =
  let n = Fft.length p and lanes = Array.length vs in
  let len = off + ((n - 1) * stride) + lanes + 3 in
  let re = Array.make len 7.0 and im = Array.make len (-7.0) in
  let at k l = off + (k * stride) + l in
  Array.iteri
    (fun l v ->
      Array.iteri
        (fun k z ->
          re.(at k l) <- z.Complex.re;
          im.(at k l) <- z.Complex.im)
        v)
    vs;
  let inside = Array.make len false in
  for k = 0 to n - 1 do
    for l = 0 to lanes - 1 do
      inside.(at k l) <- true
    done
  done;
  Fft.exec p ~inverse (Fft.scratch p) ~off ~stride ~lanes re im;
  Array.iteri
    (fun i b ->
      if (not b) && (re.(i) <> 7.0 || im.(i) <> -7.0) then
        Alcotest.failf "n=%d lanes=%d: exec wrote entry %d outside its lanes" n lanes i)
    inside;
  Array.init lanes (fun l -> Array.init n (fun k -> Cx.make re.(at k l) im.(at k l)))

let same_bits a b =
  Array.for_all2
    (fun x y ->
      Int64.equal (Int64.bits_of_float x.Complex.re) (Int64.bits_of_float y.Complex.re)
      && Int64.equal (Int64.bits_of_float x.Complex.im) (Int64.bits_of_float y.Complex.im))
    a b

let test_plan_matches_dft () =
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun n ->
      let p = Fft.plan n in
      (* every plan kind's tables, as the service cache's budget counts them *)
      if Fft.plan_bytes p <> Sys.word_size / 8 * Obj.reachable_words (Obj.repr p) then
        Alcotest.failf "n=%d: plan_bytes %d is not the plan's heap footprint" n (Fft.plan_bytes p);
      let v = random_vec rng n in
      let tol = 1e-10 *. sqrt (float_of_int n) in
      List.iter
        (fun inverse ->
          let e = max_err (plan_apply p ~inverse v) (dense_dft ~inverse v) in
          if e > tol then
            Alcotest.failf "n=%d inverse=%b: error %.3g exceeds %.3g" n inverse e tol;
          (* interleaved lanes at a stride past the lane count and a
             nonzero offset: every lane is its own fibre's transform,
             bit for bit, whatever it is batched with *)
          List.iter
            (fun (lanes, stride, off) ->
              let vs = Array.init lanes (fun _ -> random_vec rng n) in
              Array.iteri
                (fun l out ->
                  if not (same_bits out (plan_apply p ~inverse vs.(l))) then
                    Alcotest.failf "n=%d inverse=%b lanes=%d: lane %d differs from one fibre" n
                      inverse lanes l;
                  if n <= 256 then begin
                    let e = max_err out (dense_dft ~inverse vs.(l)) in
                    if e > tol then
                      Alcotest.failf "n=%d inverse=%b lanes=%d lane %d: error %.3g" n inverse
                        lanes l e
                  end)
                (lanes_apply p ~inverse ~off ~stride vs))
            [ (1, 2, 3); (3, 5, 1); (7, 9, 4) ])
        [ false; true ];
      (* F and F* coincide only for n <= 2: an ignored ~inverse flag
         must show here *)
      if n >= 3 then begin
        let e = max_err (plan_apply p ~inverse:false v) (plan_apply p ~inverse:true v) in
        if e < 1e-3 then Alcotest.failf "n=%d: forward and inverse agree (%.3g)" n e
      end)
    plan_lengths

(* The radix-2 path at the power-of-two lengths up to 256. *)
let test_fft_matches_dft () =
  let rng = Random.State.make [| 5 |] in
  List.iter
    (fun n ->
      let v = random_vec rng n in
      let e = max_err (plan_apply (Fft.plan n) ~inverse:false v) (dense_dft v) in
      if e > 1e-9 then Alcotest.failf "fft %d: error %.3g" n e)
    [ 1; 2; 4; 8; 16; 64; 256 ]

let test_fft_inverse () =
  let rng = Random.State.make [| 6 |] in
  let p = Fft.plan 128 in
  let v = random_vec rng 128 in
  checkb "roundtrip" true
    (max_err (plan_apply p ~inverse:true (plan_apply p ~inverse:false v)) v <= 1e-9)

(* Lengths off the radix-2 path: the root-table sum up to 16, Bluestein
   past it. *)
let test_bluestein_matches_dft () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun n ->
      let p = Fft.plan n in
      let v = random_vec rng n in
      let fast = plan_apply p ~inverse:false v in
      checkb (Printf.sprintf "bluestein %d" n) true (max_err fast (dense_dft v) <= 1e-8);
      checkb (Printf.sprintf "inverse %d" n) true (max_err (plan_apply p ~inverse:true fast) v <= 1e-8))
    [ 1; 2; 3; 5; 6; 7; 12; 17; 30; 100; 255 ]

let test_plan_rejects () =
  Alcotest.check_raises "length 0" (Invalid_argument "Fft.plan: length < 1") (fun () ->
      ignore (Fft.plan 0));
  let p = Fft.plan 5 in
  let exec ?(p = p) ?(s = Fft.scratch p) ~off ~stride ~lanes re im =
    Fft.exec p ~inverse:false s ~off ~stride ~lanes (Array.make re 0.0) (Array.make im 0.0)
  in
  let past = Invalid_argument "Fft.exec: lanes run past the planes" in
  Alcotest.check_raises "short planes" past (fun () -> exec ~off:0 ~stride:1 ~lanes:1 4 5);
  (* three lanes of stride 4 end at entry 1 + 4 * 4 + 2 = 19 *)
  Alcotest.check_raises "last lane past re" past (fun () -> exec ~off:1 ~stride:4 ~lanes:3 19 20);
  Alcotest.check_raises "last lane past im" past (fun () -> exec ~off:1 ~stride:4 ~lanes:3 20 19);
  exec ~off:1 ~stride:4 ~lanes:3 20 20;
  Alcotest.check_raises "overlapping lanes" (Invalid_argument "Fft.exec: stride < lanes")
    (fun () -> exec ~off:0 ~stride:2 ~lanes:3 64 64);
  Alcotest.check_raises "no lanes" (Invalid_argument "Fft.exec: lanes < 1") (fun () ->
      exec ~off:0 ~stride:1 ~lanes:0 64 64);
  Alcotest.check_raises "negative offset" (Invalid_argument "Fft.exec: negative offset")
    (fun () -> exec ~off:(-1) ~stride:1 ~lanes:1 64 64);
  Alcotest.check_raises "huge stride" past (fun () -> exec ~off:0 ~stride:max_int ~lanes:1 64 64);
  Alcotest.check_raises "foreign scratch" (Invalid_argument "Fft.exec: scratch of a smaller plan")
    (fun () -> exec ~p:(Fft.plan 17) ~s:(Fft.scratch (Fft.plan 16)) ~off:0 ~stride:1 ~lanes:1 17 17)

(* ------------------------------------------------------------------ *)
(* GF(2): Z_2^n linear algebra is Zmatrix's HNF calculus with every   *)
(* dim 2 — the route of the Simon-style post-processing (Theorem 3)   *)
(* and of the work inside Theorem 13's N.                             *)
(* ------------------------------------------------------------------ *)

module Z = Numtheory.Zmatrix

let z2 n = Array.make n 2
let v = Array.of_list
let span rows = Z.hnf_basis ~dims:(z2 (Array.length (List.hd rows))) rows

let rank rows =
  let n = Array.length (List.hd rows) in
  Float.to_int (Float.round (Z.hnf_order_log2 (Z.hnf_prepare ~dims:(z2 n) (span rows))))

(* The annihilator of the span: the GF(2) kernel of the rows. *)
let kernel rows =
  let dims = z2 (Array.length (List.hd rows)) in
  Z.hnf_elements (Z.hnf_dual (Z.hnf_prepare ~dims (span rows)))

let dot a b = Array.fold_left ( + ) 0 (Array.map2 ( * ) a b) land 1

let test_gf2_rref_rank () =
  checki "rank of basis" 2 (rank [ v [ 1; 0; 0 ]; v [ 0; 1; 0 ] ]);
  checki "dependent" 1 (rank [ v [ 1; 1; 0 ]; v [ 1; 1; 0 ] ]);
  checki "zero" 0 (rank [ v [ 0; 0; 0 ] ]);
  checki "full" 3 (rank [ v [ 1; 1; 0 ]; v [ 0; 1; 1 ]; v [ 1; 0; 0 ] ])

let test_gf2_in_span () =
  let basis = span [ v [ 1; 1; 0 ]; v [ 0; 1; 1 ] ] in
  let mem = Z.hnf_mem (Z.hnf_prepare ~dims:(z2 3) basis) in
  checkb "sum in span" true (mem (v [ 1; 0; 1 ]));
  checkb "not in span" false (mem (v [ 1; 0; 0 ]));
  checkb "zero in span" true (mem (v [ 0; 0; 0 ]))


let test_gf2_kernel () =
  let rows = [ v [ 1; 1; 0; 0 ]; v [ 0; 0; 1; 1 ] ] in
  let ker = kernel rows in
  checki "kernel size" 4 (List.length ker);
  List.iter (fun x -> List.iter (fun r -> checki "orthogonal" 0 (dot r x)) rows) ker

let test_gf2_kernel_dimension_theorem () =
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 100 do
    let n = 2 + Random.State.int rng 6 in
    let k = 1 + Random.State.int rng 4 in
    let rows = List.init k (fun _ -> Array.init n (fun _ -> Random.State.int rng 2)) in
    let ker = kernel rows in
    checki "rank-nullity" (1 lsl (n - rank rows)) (List.length ker);
    List.iter (fun x -> List.iter (fun row -> checki "orth" 0 (dot row x)) rows) ker
  done

let test_gf2_double_complement () =
  (* kernel of kernel = row space *)
  let rng = Random.State.make [| 10 |] in
  for _ = 1 to 50 do
    let n = 2 + Random.State.int rng 5 in
    let rows = List.init 3 (fun _ -> Array.init n (fun _ -> Random.State.int rng 2)) in
    checkb "double complement" true (Z.equal (span (kernel (kernel rows))) (span rows))
  done

let qcheck_props =
  let open QCheck in
  let vec n = Gen.array_size (Gen.return n) (Gen.int_bound 1) in
  [
    Test.make ~name:"gf2 add self = 0" ~count:200
      (make (vec 6))
      (fun x ->
        (* x + x = 0: every nonzero vector generates a subgroup of order 2 *)
        Z.hnf_order_int (Z.hnf_prepare ~dims:(z2 6) (span [ x ])) = Some (if Array.mem 1 x then 2 else 1));
    Test.make ~name:"gf2 dot bilinear" ~count:200
      (make Gen.(triple (vec 5) (vec 5) (vec 5)))
      (fun (a, b, c) ->
        (* (a + b).c = a.c + b.c: c annihilates <a, b> iff it annihilates both *)
        let prep = Z.hnf_prepare ~dims:(z2 5) in
        let ann rows = Z.hnf_mem (Z.hnf_dual (prep (span rows))) c in
        ann [ a; b ] = (ann [ a ] && ann [ b ]));
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
        let b = span rows in
        Z.equal (span (Array.to_list b)) b && List.for_all (Z.hnf_mem (Z.hnf_prepare ~dims:(z2 5) b)) rows);
  ]

let () =
  Alcotest.run "linalg"
    [
      ( "cx",
        [
          Alcotest.test_case "roots of unity" `Quick test_cx_roots_of_unity;
          Alcotest.test_case "arithmetic" `Quick test_cx_arith;
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
          Alcotest.test_case "bluestein any length" `Quick test_bluestein_matches_dft;
          Alcotest.test_case "plan matches dense dft" `Quick test_plan_matches_dft;
          Alcotest.test_case "plan argument checks" `Quick test_plan_rejects;
        ] );
      ( "gf2",
        [
          Alcotest.test_case "rref/rank" `Quick test_gf2_rref_rank;
          Alcotest.test_case "in_span" `Quick test_gf2_in_span;
          Alcotest.test_case "kernel" `Quick test_gf2_kernel;
          Alcotest.test_case "rank-nullity" `Quick test_gf2_kernel_dimension_theorem;
          Alcotest.test_case "double complement" `Quick test_gf2_double_complement;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
