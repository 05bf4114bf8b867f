(* Tests for the symbolic coset-state backend and the subgroup-level
   sampling pipeline: closed-form DFT rewrite vs the dense backend and
   vs the eager rewrite it replaced, a planted round's allocation,
   whole-register sweeps and partial-sweep demotion, index segments
   landing on sparse, demotion equivalence, the
   measure_all fast path, annihilator_subgroup against the Smith
   normal-form route and its edge cases, and the chi-squared
   differential gate between symbolic and amplitude-level sampling. *)

open Quantum

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let rng () = Random.State.make [| 0xc0517 |]

let all_wires dims = List.init (Array.length dims) (fun i -> i)

(* Brute-force closure of [gens] in Z_dims under addition, as a sorted
   list of element lists. *)
let brute_closure ~dims gens =
  let seen : (int list, unit) Hashtbl.t = Hashtbl.create 64 in
  let add x y = Array.init (Array.length dims) (fun i -> (x.(i) + y.(i)) mod dims.(i)) in
  let zero = Array.make (Array.length dims) 0 in
  Hashtbl.replace seen (Array.to_list zero) ();
  let rec go = function
    | [] -> ()
    | x :: rest ->
        let nexts =
          List.filter (fun y -> not (Hashtbl.mem seen (Array.to_list y))) (List.map (add x) gens)
        in
        List.iter (fun y -> Hashtbl.replace seen (Array.to_list y) ()) nexts;
        go (nexts @ rest)
  in
  go [ zero ];
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let random_gens st ~dims ~count =
  List.init count (fun _ -> Array.map (fun d -> Random.State.int st d) dims)

(* ------------------------------------------------------------------ *)
(* Subgroup calculus                                                  *)
(* ------------------------------------------------------------------ *)

let test_subgroup_basics () =
  let dims = [| 4; 6 |] in
  let sub = Backend_symbolic.Subgroup.of_gens ~dims [ [| 2; 3 |] ] in
  (match Backend_symbolic.Subgroup.order_int sub with
  | Some o -> checki "order" (List.length (brute_closure ~dims [ [| 2; 3 |] ])) o
  | None -> Alcotest.fail "tiny order overflowed");
  checkb "mem" true (Backend_symbolic.Subgroup.mem sub [| 2; 3 |]);
  checkb "not mem" false (Backend_symbolic.Subgroup.mem sub [| 1; 0 |]);
  let t = Backend_symbolic.Subgroup.trivial dims in
  let f = Backend_symbolic.Subgroup.full dims in
  checkb "trivial order" true (Backend_symbolic.Subgroup.order_int t = Some 1);
  checkb "full order" true (Backend_symbolic.Subgroup.order_int f = Some 24);
  (* dual flips trivial and full, and is involutive *)
  checkb "dual of trivial = full" true
    (Backend_symbolic.Subgroup.equal (Backend_symbolic.Subgroup.dual t) f);
  checkb "dual of full = trivial" true
    (Backend_symbolic.Subgroup.equal (Backend_symbolic.Subgroup.dual f) t);
  checkb "dual involutive" true
    (Backend_symbolic.Subgroup.equal (Backend_symbolic.Subgroup.dual (Backend_symbolic.Subgroup.dual sub)) sub)

(* The plain reduction loop, re-reducing every trailing entry after
   every row: the oracle for the lean [Zmatrix.hnf_reduce]. *)
let reference_hnf_reduce ~dims basis x =
  let emod = Numtheory.Arith.emod in
  let r = Array.length dims in
  let t = Array.init r (fun i -> emod x.(i) dims.(i)) in
  for i = 0 to r - 1 do
    let h = basis.(i).(i) in
    let q = (t.(i) - emod t.(i) h) / h in
    if q <> 0 then
      for j = i to r - 1 do
        t.(j) <- t.(j) - (q * basis.(i).(j))
      done;
    for j = i + 1 to r - 1 do
      t.(j) <- emod t.(j) dims.(j)
    done
  done;
  t

(* Random dims (d = 1 wires and non-coprime mixed dims included) and a
   random generator list over them. *)
let gen_dims_gens =
  let open QCheck.Gen in
  let* dims =
    oneof
      [
        return [| 36; 120 |];
        return [| 4; 6; 8 |];
        (let* r = int_range 1 5 in
         array_repeat r (oneofl [ 1; 2; 3; 4; 6; 8; 9; 12 ]));
      ]
  in
  let* k = int_range 0 4 in
  let* gens =
    list_repeat k (array_size (return (Array.length dims)) (int_range (-200) 200))
  in
  return (dims, gens)

let print_dims_gens (dims, gens) =
  let arr a = "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int a)) ^ "]" in
  Printf.sprintf "dims=%s gens=%s" (arr dims) (String.concat " " (List.map arr gens))

(* The plain sampling loop: all r coefficients drawn in row order,
   then x = sum_i c_i row_i reduced coordinatewise — the oracle for the
   row-sparse [Zmatrix.hnf_sample], which must make the same draws. *)
let reference_hnf_sample rng ~dims basis =
  let emod = Numtheory.Arith.emod in
  let r = Array.length dims in
  let cs = Array.init r (fun i -> Random.State.full_int rng (dims.(i) / basis.(i).(i))) in
  Array.init r (fun j ->
      let acc = ref 0 in
      for i = 0 to j do
        acc := emod (!acc + emod (cs.(i) * basis.(i).(j)) dims.(j)) dims.(j)
      done;
      !acc)

(* Bases whose rows are dense, sparse (one or two nonzeros right of the
   diagonal) or diagonal, over dims up to 2^31: the HNF of a mix of
   such generators, with small and large wires side by side. *)
let gen_shaped_dims_gens =
  let open QCheck.Gen in
  let* r = int_range 1 6 in
  let* dims =
    array_repeat r
      (oneof
         [
           oneofl [ 1; 2; 3; 4; 6; 8; 9; 12 ];
           int_range 2 ((1 lsl 31) - 1);
           (* a shared large prime: rows over several such wires keep
              large diagonal entries, so large products pile up in one
              coordinate *)
           return ((1 lsl 31) - 1);
         ])
  in
  let entry i = int_range 0 (dims.(i) - 1) in
  let dense = array_size (return r) (int_range 0 max_int) >|= Array.mapi (fun i x -> x mod dims.(i)) in
  let sparse =
    let* lead = int_range 0 (r - 1) in
    let* others = list_size (int_range 0 2) (int_range lead (r - 1)) in
    let* vals = array_size (return r) (int_range 0 max_int) in
    return
      (Array.init r (fun j ->
           if j = lead || List.mem j others then 1 + (vals.(j) mod dims.(j)) else 0))
  in
  let diagonal =
    let* i = int_range 0 (r - 1) in
    let* a = entry i in
    return (Array.init r (fun j -> if j = i then a else 0))
  in
  let* k = int_range 0 (2 * r) in
  let* gens = list_repeat k (frequency [ (1, dense); (2, sparse); (2, diagonal) ]) in
  return (dims, gens)

let gen_any_dims_gens = QCheck.Gen.oneof [ gen_dims_gens; gen_shaped_dims_gens ]

let qcheck_reduce_vs_reference =
  QCheck.Test.make ~name:"lean hnf_reduce = reference loop" ~count:300
    (QCheck.make ~print:print_dims_gens gen_any_dims_gens)
    (fun (dims, gens) ->
      let basis = Numtheory.Zmatrix.hnf_basis ~dims gens in
      let p = Numtheory.Zmatrix.hnf_prepare ~dims basis in
      let st = Random.State.make [| List.length gens; Array.fold_left ( + ) 0 dims |] in
      List.for_all
        (fun _ ->
          let x = Array.map (fun d -> Random.State.full_int st (4 * d) - (2 * d)) dims in
          Numtheory.Zmatrix.hnf_reduce p x = reference_hnf_reduce ~dims basis x)
        (List.init 20 Fun.id))

(* Same vector and same RNG state after the call, draw for draw. *)
let qcheck_sample_vs_reference =
  QCheck.Test.make ~name:"lean hnf_sample = reference loop" ~count:300
    (QCheck.make ~print:print_dims_gens gen_any_dims_gens)
    (fun (dims, gens) ->
      let basis = Numtheory.Zmatrix.hnf_basis ~dims gens in
      let p = Numtheory.Zmatrix.hnf_prepare ~dims basis in
      let seed = [| List.length gens; Array.fold_left ( + ) 0 dims |] in
      let a = Random.State.make seed and b = Random.State.make seed in
      List.for_all
        (fun _ ->
          let x = Numtheory.Zmatrix.hnf_sample a p and y = reference_hnf_sample b ~dims basis in
          x = y && Random.State.bits a = Random.State.bits b)
        (List.init 20 Fun.id))

(* The streaming span ([Zmatrix.hnf_insert]) over shaped dims up to
   2^31 - 1.  Each property draws its own vectors from a seed fixed by
   the case. *)
let case_rng (dims, gens) = Random.State.make [| List.length gens; Array.fold_left ( + ) 0 dims |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let qcheck_span_order_free =
  QCheck.Test.make ~name:"span: insertion order gives one basis" ~count:300
    (QCheck.make ~print:print_dims_gens gen_shaped_dims_gens)
    (fun ((dims, gens) as case) ->
      let st = case_rng case in
      let basis = Numtheory.Zmatrix.hnf_basis ~dims gens in
      List.for_all
        (fun order -> Numtheory.Zmatrix.equal (Numtheory.Zmatrix.hnf_basis ~dims order) basis)
        [ List.rev gens; shuffle st gens; shuffle st gens; shuffle st gens ])

(* A member (a subgroup element shifted by multiples of the dims)
   reports no growth and leaves the rows as they were; an arbitrary
   vector reports growth exactly when it is not a member. *)
let qcheck_span_member =
  QCheck.Test.make ~name:"span: a member reports no growth" ~count:300
    (QCheck.make ~print:print_dims_gens gen_shaped_dims_gens)
    (fun ((dims, gens) as case) ->
      let module Zm = Numtheory.Zmatrix in
      let st = case_rng case in
      let sp = Zm.hnf_span ~dims in
      List.iter (fun g -> ignore (Zm.hnf_insert sp g)) gens;
      let p = Zm.hnf_freeze sp in
      let rows = Array.map Array.copy (Zm.hnf_rows p) in
      let members_ok =
        List.for_all
          (fun _ ->
            let m = Array.mapi (fun i x -> x + (dims.(i) * (Random.State.int st 5 - 2))) (Zm.hnf_sample st p) in
            (not (Zm.hnf_insert sp m)) && Zm.equal (Zm.hnf_rows (Zm.hnf_freeze sp)) rows)
          (List.init 10 Fun.id)
      in
      let x = Array.map (fun d -> Random.State.full_int st d) dims in
      members_ok && Zm.hnf_insert sp x = not (Zm.hnf_mem p x))

(* Freezing after every insert: each frozen basis is exactly what
   [hnf_prepare] makes of its rows (nonzero lists and counts included),
   and stays so while later inserts grow the span. *)
let qcheck_span_freeze =
  QCheck.Test.make ~name:"span: frozen = hnf_prepare of its rows" ~count:300
    (QCheck.make ~print:print_dims_gens gen_shaped_dims_gens)
    (fun (dims, gens) ->
      let module Zm = Numtheory.Zmatrix in
      let sp = Zm.hnf_span ~dims in
      let frozen =
        List.map
          (fun g ->
            ignore (Zm.hnf_insert sp g);
            let p = Zm.hnf_freeze sp in
            let q = Zm.hnf_prepare ~dims (Array.map Array.copy (Zm.hnf_rows p)) in
            (p, q))
          gens
      in
      List.for_all (fun (p, q) -> p = q) frozen)

let test_reduce_coset_invariant () =
  (* reduce is a canonical coset label: idempotent, and constant on
     x + H for every h in H.  Large ranks included, where the
     subgroup is far too big to enumerate. *)
  let st = rng () in
  let cases =
    [ Array.make 128 2; Array.make 80 3; Array.make 60 4; [| 4; 6; 8 |]; [| 36; 120; 1 |] ]
  in
  List.iter
    (fun dims ->
      let r = Array.length dims in
      let gens =
        List.init (max 1 (r / 2)) (fun _ -> Array.map (fun d -> Random.State.int st d) dims)
      in
      let sub = Backend_symbolic.Subgroup.of_gens ~dims gens in
      for _ = 1 to 50 do
        let x = Array.map (fun d -> Random.State.int st d) dims in
        let rx = Backend_symbolic.Subgroup.reduce sub x in
        checkb "idempotent" true (Backend_symbolic.Subgroup.reduce sub rx = rx);
        let h = Backend_symbolic.Subgroup.sample st sub in
        let xh = Array.init r (fun i -> x.(i) + h.(i)) in
        checkb "constant on the coset" true (Backend_symbolic.Subgroup.reduce sub xh = rx);
        let diff = Array.init r (fun i -> rx.(i) - x.(i)) in
        checkb "stays in the coset" true (Backend_symbolic.Subgroup.mem sub diff)
      done)
    cases

(* ------------------------------------------------------------------ *)
(* Closed-form DFT rewrite vs the dense backend                       *)
(* ------------------------------------------------------------------ *)

(* The acceptance test of the whole rewrite algebra: |rep + H> built
   symbolically and densely, pushed through the same full Fourier
   sweep, must be the same vector — global phase included, both
   directions. *)
let test_rewrite_matches_dense () =
  let st = rng () in
  for _ = 1 to 25 do
    let r = 1 + Random.State.int st 3 in
    let dims = Array.init r (fun _ -> [| 2; 3; 4; 6 |].(Random.State.int st 4)) in
    let gens = random_gens st ~dims ~count:(1 + Random.State.int st 2) in
    let sub = Backend_symbolic.Subgroup.of_gens ~dims gens in
    let rep = Array.map (fun d -> Random.State.int st d) dims in
    let sym = State.of_coset ~backend:Backend.Symbolic sub ~rep in
    let den = State.of_coset ~backend:Backend.Dense sub ~rep in
    checkb "construction agrees" true (State.approx_equal ~eps:1e-9 sym den);
    let wires = all_wires dims in
    let sym_f = Qft.forward sym ~wires and den_f = Qft.forward den ~wires in
    checkb "stays symbolic" true (State.backend sym_f = Backend.Symbolic);
    checkb "forward DFT agrees" true (State.approx_equal ~eps:1e-9 sym_f den_f);
    let sym_b = Qft.backward sym ~wires and den_b = Qft.backward den ~wires in
    checkb "inverse DFT agrees" true (State.approx_equal ~eps:1e-9 sym_b den_b);
    (* round trip comes back to the coset state *)
    checkb "round trip" true (State.approx_equal ~eps:1e-9 (Qft.backward sym_f ~wires) sym)
  done

let test_rewrite_ledger () =
  Metrics.reset ();
  let dims = [| 2; 2; 2 |] in
  let sub = Backend_symbolic.Subgroup.of_gens ~dims [ [| 1; 1; 0 |] ] in
  let sym = State.of_coset ~backend:Backend.Symbolic sub ~rep:[| 0; 1; 0 |] in
  let _ = Qft.forward sym ~wires:(all_wires dims) in
  let snap = Metrics.snapshot () in
  checki "one rewrite per full sweep" 1 snap.Metrics.symbolic_rewrites;
  checkb "no demotion" true (snap.Metrics.symbolic_demotions = 0)

(* A sweep ticks [dft_apps] once per wire on every backend, and on a
   symbolic state a full sweep in any wire order is one rewrite and no
   demotion. *)
let test_sweep_ledger () =
  let dims = [| 4; 6; 3 |] in
  let sub = Backend_symbolic.Subgroup.of_gens ~dims [ [| 2; 3; 0 |]; [| 0; 2; 1 |] ] in
  let rep = [| 1; 4; 2 |] in
  let wires = [ 2; 0; 1 ] in
  List.iter
    (fun backend ->
      let st = State.of_coset ~backend sub ~rep in
      Metrics.reset ();
      let out = Qft.forward st ~wires in
      let m = Metrics.snapshot () in
      checki "dft_apps = r" 3 m.Metrics.dft_apps;
      checkb "same backend" true (State.backend out = backend);
      if backend = Backend.Symbolic then begin
        checki "one rewrite" 1 m.Metrics.symbolic_rewrites;
        checki "no demotion" 0 m.Metrics.symbolic_demotions
      end)
    [ Backend.Dense; Backend.Sparse; Backend.Symbolic ]

(* Only a permutation of the whole register is a symbolic sweep: a
   repeated wire, a missing wire or a mixed-direction pair of sweeps
   demotes once at the sweep and still matches dense, and a wire out of
   range raises like it does on dense. *)
let test_sweep_rejections () =
  let dims = [| 4; 6; 3 |] in
  let sub = Backend_symbolic.Subgroup.of_gens ~dims [ [| 2; 3; 0 |]; [| 0; 2; 1 |] ] in
  let rep = [| 1; 4; 2 |] in
  let sym_s = State.of_coset ~backend:Backend.Symbolic sub ~rep in
  let den_s = State.of_coset ~backend:Backend.Dense sub ~rep in
  (* wire order is free *)
  checkb "out-of-order sweep agrees" true
    (State.approx_equal ~eps:1e-9 (Qft.forward sym_s ~wires:[ 2; 0; 1 ])
       (Qft.forward den_s ~wires:[ 2; 0; 1 ]));
  let through_state ~demotions sym den f =
    Metrics.reset ();
    let a = f sym in
    checki "demoted at the sweep" demotions (Metrics.snapshot ()).Metrics.symbolic_demotions;
    checkb "not symbolic" true (State.backend a <> Backend.Symbolic);
    checkb "matches dense" true (State.approx_equal ~eps:1e-9 a (f den))
  in
  through_state ~demotions:1 sym_s den_s (fun st -> Qft.forward st ~wires:[ 1; 0; 1 ]);
  through_state ~demotions:1 sym_s den_s (fun st -> Qft.forward st ~wires:[ 1; 2 ]);
  through_state ~demotions:1 sym_s den_s (fun st ->
      Qft.backward (Qft.forward st ~wires:[ 1; 2 ]) ~wires:[ 0 ]);
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  checkb "wire out of range raises" true (raises (fun () -> Qft.forward sym_s ~wires:[ 0; 1; 3 ]));
  checkb "dense raises too" true (raises (fun () -> Qft.forward den_s ~wires:[ 0; 1; 3 ]))

(* A partial sweep demotes to dense at the sweep, whatever subset and
   order, and matches the dense build's sweep. *)
let test_partial_sweep_demotion_random () =
  let st = rng () in
  for _ = 1 to 20 do
    let r = 2 + Random.State.int st 2 in
    let dims = Array.init r (fun _ -> [| 2; 3; 4; 6 |].(Random.State.int st 4)) in
    let sub = Backend_symbolic.Subgroup.of_gens ~dims (random_gens st ~dims ~count:2) in
    let rep = Array.map (fun d -> Random.State.int st d) dims in
    let wires = List.filter (fun _ -> Random.State.bool st) (List.init r Fun.id) in
    let wires = if List.length wires = r then List.tl wires else wires in
    let wires = List.rev wires in
    let inverse = Random.State.bool st in
    let sweep s = if inverse then Qft.backward s ~wires else Qft.forward s ~wires in
    let sym = sweep (State.of_coset ~backend:Backend.Symbolic sub ~rep) in
    let den = sweep (State.of_coset ~backend:Backend.Dense sub ~rep) in
    checkb "partial sweep agrees" true (State.approx_equal ~eps:1e-9 sym den);
    if wires <> [] then
      checkb "partial sweep demoted to dense" true (State.backend sym = Backend.Dense)
  done

(* ------------------------------------------------------------------ *)
(* Lazy rewrite vs the eager reference                                *)
(* ------------------------------------------------------------------ *)

(* The eager rewrite the backend ran before it went lazy, kept as the
   reference: every state carries its canonical representative and a
   phase vector, and each sweep pays the global phase, the relabel and
   a reduced representative. *)
module Eager = struct
  module Sub = Backend_symbolic.Subgroup
  module Cx = Linalg.Cx

  type t = { sub : Sub.t; rep : int array; phase : int array; gphase : Cx.t }

  let dims st = Sub.dims st.sub

  let character ~dims p x =
    let acc = ref Cx.one in
    Array.iteri
      (fun i d ->
        if p.(i) <> 0 && x.(i) <> 0 then begin
          let e = Numtheory.Arith.emod (p.(i) * x.(i)) d in
          if e <> 0 then acc := Cx.mul !acc (Cx.root_of_unity d e)
        end)
      dims;
    !acc

  let of_coset sub rep =
    { sub; rep = Sub.reduce sub rep; phase = Array.make (Array.length rep) 0; gphase = Cx.one }

  let amp_at_tuple st x =
    let dims = dims st in
    let diff = Array.init (Array.length dims) (fun i -> x.(i) - st.rep.(i)) in
    if not (Sub.mem st.sub diff) then Cx.zero
    else
      let inv_sqrt = exp (-.0.5 *. Sub.order_log2 st.sub *. log 2.0) in
      Cx.scale inv_sqrt (Cx.mul st.gphase (character ~dims st.phase x))

  let amp_at st idx = amp_at_tuple st (State.decode (dims st) idx)

  let iter_nonzero st f =
    let dims = dims st in
    let entries =
      List.map
        (fun h ->
          let x = Array.init (Array.length dims) (fun i -> (st.rep.(i) + h.(i)) mod dims.(i)) in
          (State.encode dims x, x))
        (Sub.elements st.sub)
    in
    let entries = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
    List.iter (fun (idx, x) -> f idx (amp_at_tuple st x)) entries

  let demote st =
    let dims = dims st in
    let r = Array.length dims in
    let entries =
      List.rev_map
        (fun h ->
          let x = Array.init r (fun i -> (st.rep.(i) + h.(i)) mod dims.(i)) in
          (x, Cx.mul st.gphase (character ~dims st.phase x)))
        (Sub.elements st.sub)
    in
    Backend_dense.of_support dims entries

  let neg_in_range dims v = Array.mapi (fun i x -> if x = 0 then 0 else dims.(i) - x) v

  let fourier st ~inverse =
    let dims = dims st in
    let dual = Sub.dual st.sub in
    let c = st.rep and p = st.phase in
    let gphase = Cx.mul st.gphase (character ~dims p c) in
    if not inverse then { sub = dual; rep = Sub.reduce dual (neg_in_range dims p); phase = c; gphase }
    else { sub = dual; rep = Sub.reduce dual p; phase = neg_in_range dims c; gphase }

  let approx_equal ?(eps = 1e-9) a b =
    Sub.equal a.sub b.sub
    && a.rep = b.rep
    &&
    let da = dims a in
    let probe =
      a.rep
      :: List.map
           (fun row -> Array.init (Array.length da) (fun i -> (a.rep.(i) + row.(i)) mod da.(i)))
           (Array.to_list (Sub.basis a.sub))
    in
    List.for_all (fun x -> Cx.approx_equal ~eps (amp_at_tuple a x) (amp_at_tuple b x)) probe
end

(* A coset state pushed through 1-4 whole-register sweeps, each in a
   random direction and wire order, three ways: the lazy backend, the
   eager reference and dense.  Every amplitude, the demoted vector, the
   iter_nonzero order and the approx_equal verdict against a second
   chain (from the same coset by another representative, or from a
   random one) must agree. *)
let qcheck_lazy_vs_eager =
  let open QCheck in
  let gen_case =
    let open Gen in
    let* r = int_range 1 3 in
    let* dims = array_repeat r (oneofl [ 2; 3; 4; 6 ]) in
    let* k = int_range 0 2 in
    let* gens = list_repeat k (array_size (return r) (int_bound 5)) in
    let gens = List.map (fun g -> Array.mapi (fun i v -> v mod dims.(i)) g) gens in
    let point = array_size (return r) (int_range (-20) 20) in
    let* rep = point in
    let* same_coset = bool in
    let* coefs = list_repeat k (int_range (-3) 3) in
    let* wraps = array_size (return r) (int_range (-2) 2) in
    let* other = point in
    let rep2 =
      if same_coset then
        Array.mapi
          (fun i v ->
            List.fold_left2 (fun acc g a -> acc + (a * g.(i))) (v + (wraps.(i) * dims.(i))) gens coefs)
          rep
      else other
    in
    let* sweeps = list_size (int_range 1 4) (pair bool (shuffle_l (List.init r Fun.id))) in
    return (dims, gens, rep, rep2, sweeps)
  in
  let print (dims, gens, rep, rep2, sweeps) =
    let arr a = "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int a)) ^ "]" in
    Printf.sprintf "%s rep=%s rep2=%s sweeps=%s" (print_dims_gens (dims, gens)) (arr rep) (arr rep2)
      (String.concat " "
         (List.map
            (fun (inv, ws) -> (if inv then "B" else "F") ^ arr (Array.of_list ws))
            sweeps))
  in
  Test.make ~name:"lazy rewrite = eager reference = dense" ~count:300 (make ~print gen_case)
    (fun (dims, gens, rep, rep2, sweeps) ->
      let sub = Backend_symbolic.Subgroup.of_gens ~dims gens in
      let sweep st (inverse, wires) =
        if inverse then Qft.backward st ~wires else Qft.forward st ~wires
      in
      let chain backend rep = List.fold_left sweep (State.of_coset ~backend sub ~rep) sweeps in
      let eager rep =
        List.fold_left
          (fun st (inverse, _) -> Eager.fourier st ~inverse)
          (Eager.of_coset sub rep) sweeps
      in
      let lz = chain Backend.Symbolic rep and den = chain Backend.Dense rep in
      let eg = eager rep in
      let close a b = Linalg.Cx.approx_equal ~eps:1e-9 a b in
      let total = Array.fold_left ( * ) 1 dims in
      let nonzeros iter =
        let acc = ref [] in
        iter (fun i z -> acc := (i, z) :: !acc);
        List.rev !acc
      in
      let lz_nz = nonzeros (State.iter_nonzero lz) and eg_nz = nonzeros (Eager.iter_nonzero eg) in
      let demoted = State.amplitudes lz
      and eg_demoted = Backend_dense.amplitudes (Eager.demote eg)
      and den_amps = State.amplitudes den in
      let verdicts =
        [
          State.approx_equal lz (chain Backend.Symbolic rep2);
          Eager.approx_equal eg (eager rep2);
          State.approx_equal den (chain Backend.Dense rep2);
        ]
      in
      State.backend lz = Backend.Symbolic
      && List.for_all
           (fun idx ->
             let z = State.amp_at lz idx in
             close z (Eager.amp_at eg idx) && close z (State.amp_at den idx))
           (List.init total Fun.id)
      && List.for_all2
           (fun a b -> close a b)
           (Array.to_list demoted) (Array.to_list eg_demoted)
      && List.for_all2 (fun a b -> close a b) (Array.to_list demoted) (Array.to_list den_amps)
      && List.map fst lz_nz = List.map fst eg_nz
      && List.for_all2 (fun (_, a) (_, b) -> close a b) lz_nz eg_nz
      && List.for_all (fun v -> v = List.hd verdicts) verdicts
      && State.approx_equal lz den)

(* ------------------------------------------------------------------ *)
(* Index segments never build symbolic states                         *)
(* ------------------------------------------------------------------ *)

(* A coset's index segment under [~backend:Symbolic] lands on sparse,
   equal to the explicit sparse build, and runs no normal-form solve:
   symbolic states come from subgroup structure (State.of_coset) only. *)
let test_of_indices_symbolic_is_sparse () =
  let dims = [| 4; 6 |] in
  let sub = Backend_symbolic.Subgroup.of_gens ~dims [ [| 2; 3 |]; [| 0; 2 |] ] in
  let rep = [| 1; 1 |] in
  let idxs =
    Backend_symbolic.Subgroup.elements sub
    |> List.map (fun h ->
           State.encode dims (Array.init 2 (fun i -> (rep.(i) + h.(i)) mod dims.(i))))
    |> List.sort_uniq Int.compare
    |> Array.of_list
  in
  let solves () = (Metrics.snapshot ()).Metrics.symbolic_solves in
  let before = solves () in
  let st = State.of_indices ~backend:Backend.Symbolic dims idxs in
  checki "no normal-form solve" before (solves ());
  checkb "lands on sparse" true (State.backend st = Backend.Sparse);
  checkb "equals the sparse build" true
    (State.approx_equal ~eps:0.0 st (State.of_indices ~backend:Backend.Sparse dims idxs))

(* ------------------------------------------------------------------ *)
(* Demotion                                                           *)
(* ------------------------------------------------------------------ *)

(* Each amplitude-level operation on a symbolic state demotes it to
   dense exactly once and agrees with the dense build; a full-register
   measurement stays symbolic and demotes nothing. *)
let test_demotion_equivalence () =
  let dims = [| 4; 4 |] in
  let sub = Backend_symbolic.Subgroup.of_gens ~dims [ [| 2; 1 |] ] in
  let rep = [| 1; 0 |] in
  let sym = State.of_coset ~backend:Backend.Symbolic sub ~rep in
  let den = State.of_coset ~backend:Backend.Dense sub ~rep in
  let once name op =
    Metrics.reset ();
    let a = op sym in
    checki (name ^ ": one demotion") 1 (Metrics.snapshot ()).Metrics.symbolic_demotions;
    checkb (name ^ ": dense") true (State.backend a = Backend.Dense);
    checkb (name ^ ": agrees with dense") true (State.approx_equal ~eps:1e-9 a (op den))
  in
  let f x = (x.(0) + x.(1)) mod 4 in
  once "tensor" (fun st -> State.tensor st (State.create [| 4 |]));
  once "tensor then oracle" (fun st ->
      State.apply_oracle_add
        (State.tensor st (State.create [| 4 |]))
        ~in_wires:[ 0; 1 ] ~out_wire:2 ~f);
  once "gate" (fun st -> State.apply_wire st ~wire:1 (Linalg.Cmat.dft 4));
  once "basis map" (fun st -> State.apply_basis_map st (fun x -> [| x.(1); x.(0) |]));
  once "partial measurement" (fun st ->
      snd (State.measure (Random.State.make [| 3 |]) st ~wires:[ 0 ]));
  Metrics.reset ();
  let p_sym = State.probabilities sym ~wires:[ 0 ] in
  checki "marginal: one demotion" 1 (Metrics.snapshot ()).Metrics.symbolic_demotions;
  let p_den = State.probabilities den ~wires:[ 0 ] in
  Array.iteri
    (fun i p -> checkb "marginal" true (Float.abs (p -. p_den.(i)) < 1e-9))
    p_sym;
  Metrics.reset ();
  let _, post = State.measure (Random.State.make [| 3 |]) sym ~wires:[ 1; 0 ] in
  checkb "full measurement stays symbolic" true (State.backend post = Backend.Symbolic);
  checki "full measurement: no demotion" 0 (Metrics.snapshot ()).Metrics.symbolic_demotions

let test_mid_sweep_demotion () =
  (* DFT on a strict subset of wires, then on the rest: the first
     sweep demotes once to dense, the second runs on dense, and the
     result is the full transform.  A single-wire DFT demotes at once
     too. *)
  let dims = [| 2; 2; 2 |] in
  let sub = Backend_symbolic.Subgroup.of_gens ~dims [ [| 1; 0; 1 |] ] in
  let sym = State.of_coset ~backend:Backend.Symbolic sub ~rep:[| 0; 1; 0 |] in
  let den = State.of_coset ~backend:Backend.Dense sub ~rep:[| 0; 1; 0 |] in
  Metrics.reset ();
  let sym' = Qft.forward sym ~wires:[ 0; 2 ] in
  checki "one demotion at the sweep" 1 (Metrics.snapshot ()).Metrics.symbolic_demotions;
  checkb "dense after a partial sweep" true (State.backend sym' = Backend.Dense);
  let den' = Qft.forward den ~wires:[ 0; 2 ] in
  checkb "partial sweep agrees" true (State.approx_equal ~eps:1e-9 sym' den');
  let sym'' = Qft.forward sym' ~wires:[ 1 ] and den'' = Qft.forward den' ~wires:[ 1 ] in
  checki "no second demotion" 1 (Metrics.snapshot ()).Metrics.symbolic_demotions;
  checkb "completed sweep agrees" true (State.approx_equal ~eps:1e-9 sym'' den'');
  checkb "completed sweep = one full sweep" true
    (State.approx_equal ~eps:1e-9 sym'' (Qft.forward sym ~wires:(all_wires dims)));
  let one = State.fourier sym ~wires:[ 1 ] ~inverse:false in
  checki "per-wire DFT demotes" 2 (Metrics.snapshot ()).Metrics.symbolic_demotions;
  checkb "per-wire DFT on dense" true (State.backend one = Backend.Dense);
  checkb "per-wire DFT agrees" true
    (State.approx_equal ~eps:1e-9 one (State.fourier den ~wires:[ 1 ] ~inverse:false))

(* ------------------------------------------------------------------ *)
(* Measurement law                                                     *)
(* ------------------------------------------------------------------ *)

let test_measure_deterministic () =
  let dims = [| 3; 4; 5 |] in
  let sub = Backend_symbolic.Subgroup.of_gens ~dims [ [| 1; 2; 0 |]; [| 0; 0; 1 |] ] in
  let sym = State.of_coset ~backend:Backend.Symbolic sub ~rep:[| 2; 1; 3 |] in
  let a = State.measure_all (Random.State.make [| 42 |]) sym in
  let b = State.measure_all (Random.State.make [| 42 |]) sym in
  checkb "same seed, same outcome" true (Array.to_list a = Array.to_list b);
  (* outcome lies in the coset *)
  let diff = Array.init 3 (fun i -> (a.(i) - 2 + dims.(i) * 2) mod dims.(i)) in
  ignore diff;
  let d = Array.init 3 (fun i -> (a.(i) + dims.(i) - [| 2; 1; 3 |].(i)) mod dims.(i)) in
  checkb "outcome in coset" true (Backend_symbolic.Subgroup.mem sub d)

(* The measure_all fast path against the full measurement it stands
   for: the same outcome and the same next RNG state on every seed, on
   coset states (nonzero representatives) and on their Fourier images
   and back, at cryptographic rank and on a mixed register. *)
let test_measure_all_fast_path () =
  let st = rng () in
  let registers =
    [ Array.make 128 2; Array.make 80 3; Array.make 60 4; [| 4; 6; 8 |] ]
  in
  List.iter
    (fun dims ->
      let r = Array.length dims in
      let wires = all_wires dims in
      let gens = random_gens st ~dims ~count:(max 1 (r / 2)) in
      let sub = Backend_symbolic.Subgroup.of_gens ~dims gens in
      let x0 = Array.map (fun d -> Random.State.int st d) dims in
      let coset = State.of_coset ~backend:Backend.Symbolic sub ~rep:x0 in
      let fourier = Qft.forward coset ~wires in
      (* supports: x0 + H, then H^perp, then -x0 + H *)
      let states =
        [
          (coset, sub, fun y -> Array.init r (fun i -> y.(i) - x0.(i)));
          (fourier, Backend_symbolic.Subgroup.dual sub, Fun.id);
          (Qft.forward fourier ~wires, sub, fun y -> Array.init r (fun i -> y.(i) + x0.(i)));
        ]
      in
      List.iter (fun (s, _, _) -> checkb "symbolic" true (State.backend s = Backend.Symbolic)) states;
      for seed = 1 to 1000 do
        let s, support, shift = List.nth states (seed mod 3) in
        let a = Random.State.make [| seed |] and b = Random.State.make [| seed |] in
        let fast = State.measure_all a s in
        let full, _ = State.measure b s ~wires in
        if fast <> full then Alcotest.failf "outcome differs at seed %d on rank %d" seed r;
        if Random.State.bits a <> Random.State.bits b then
          Alcotest.failf "RNG stream differs at seed %d on rank %d" seed r;
        if not (Backend_symbolic.Subgroup.mem support (shift fast)) then
          Alcotest.failf "outcome outside the support at seed %d on rank %d" seed r
      done;
      (* one measurement and one draw on the ledger, no normal form *)
      Metrics.reset ();
      ignore (State.measure_all st fourier);
      let m = Metrics.snapshot () in
      checki "one measurement" 1 m.Metrics.measurements;
      checki "one draw" 1 m.Metrics.symbolic_samples;
      checki "no solve" 0 m.Metrics.symbolic_solves)
    registers;
  (* a partial sweep demotes once, at the sweep; measuring the dense
     result demotes nothing more, and its outcome has mass *)
  let dims = [| 4; 6; 8 |] in
  let sub = Backend_symbolic.Subgroup.of_gens ~dims [ [| 2; 0; 0 |]; [| 0; 3; 4 |] ] in
  let partial st = Qft.forward st ~wires:[ 0; 2 ] in
  Metrics.reset ();
  let sym = partial (State.of_coset ~backend:Backend.Symbolic sub ~rep:[| 1; 2; 3 |]) in
  let den = partial (State.of_coset ~backend:Backend.Dense sub ~rep:[| 1; 2; 3 |]) in
  checki "demoted once, at the sweep" 1 (Metrics.snapshot ()).Metrics.symbolic_demotions;
  let y = State.measure_all (Random.State.make [| 5 |]) sym in
  checki "measurement demotes nothing" 1 (Metrics.snapshot ()).Metrics.symbolic_demotions;
  checkb "outcome in the support" true
    (Linalg.Cx.norm2 (State.amp_at den (State.encode dims y)) > 1e-12)

(* Exact-frequency comparison of the measurement distribution on a
   small group: symbolic Fourier sampling vs the dense pipeline, same
   empirical counts gate via a two-sample chi-squared statistic. *)
let chi2_two_sample tally_a tally_b =
  let keys = Hashtbl.create 64 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) tally_a;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) tally_b;
  let stat = ref 0.0 and cells = ref 0 in
  Hashtbl.iter
    (fun k () ->
      incr cells;
      let a = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tally_a k)) in
      let b = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tally_b k)) in
      stat := !stat +. (((a -. b) ** 2.0) /. (a +. b)))
    keys;
  (!stat, !cells)

let tally ~dims draw st n =
  let h = Hashtbl.create 64 in
  for _ = 1 to n do
    let y = draw st in
    let k = State.encode dims y in
    Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k))
  done;
  h

let test_sampler_differential () =
  let st = rng () in
  let cases =
    [
      ([| 4; 6; 8 |], [ [| 2; 0; 0 |]; [| 0; 3; 2 |] ]);
      ([| 2; 2; 2; 2 |], [ [| 1; 1; 0; 0 |]; [| 0; 0; 1; 1 |] ]);
      ([| 9; 3 |], [ [| 3; 1 |] ]);
    ]
  in
  List.iter
    (fun (dims, gens) ->
      let n = 3000 in
      let qs = Query.create () and qd = Query.create () in
      let ds = Coset_state.sampler_with_subgroup ~backend:Backend.Symbolic ~dims ~subgroup:gens ~queries:qs () in
      let dd = Coset_state.sampler_with_subgroup ~backend:Backend.Dense ~dims ~subgroup:gens ~queries:qd () in
      let ts = tally ~dims ds st n and td = tally ~dims dd st n in
      (* identical supports: both are exactly the annihilator *)
      checki "same support" (Hashtbl.length ts) (Hashtbl.length td);
      let sub = Backend_symbolic.Subgroup.of_gens ~dims gens in
      let dual = Backend_symbolic.Subgroup.dual sub in
      Hashtbl.iter
        (fun k _ -> checkb "outcome in dual" true
            (Backend_symbolic.Subgroup.mem dual (State.decode dims k)))
        ts;
      (* same law: two-sample chi-squared below a generous threshold *)
      let stat, cells = chi2_two_sample ts td in
      let df = float_of_int (max 1 (cells - 1)) in
      let threshold = df +. (6.0 *. sqrt (2.0 *. df)) +. 10.0 in
      if stat > threshold then
        Alcotest.failf "chi2 %.1f over %d cells exceeds %.1f" stat cells threshold;
      checki "one query per sample" n (Query.count qs))
    cases

(* The same gate as a qcheck property over random small instances. *)
let qcheck_differential =
  let open QCheck in
  let gen_case =
    let open Gen in
    let* r = int_range 1 3 in
    let* dims = array_repeat r (oneofl [ 2; 3; 4; 6 ]) in
    let* k = int_range 1 2 in
    let* gens = list_repeat k (array_size (return r) (int_bound 5)) in
    let gens = List.map (fun g -> Array.mapi (fun i v -> v mod dims.(i)) g) gens in
    let* seed = int_bound 10_000 in
    return (dims, gens, seed)
  in
  Test.make ~name:"symbolic vs dense sampling law" ~count:15
    (make gen_case)
    (fun (dims, gens, seed) ->
      let st = Random.State.make [| seed |] in
      let n = 800 in
      let qs = Query.create () and qd = Query.create () in
      let ds = Coset_state.sampler_with_subgroup ~backend:Backend.Symbolic ~dims ~subgroup:gens ~queries:qs () in
      let dd = Coset_state.sampler_with_subgroup ~backend:Backend.Dense ~dims ~subgroup:gens ~queries:qd () in
      let ts = tally ~dims ds st n and td = tally ~dims dd st n in
      let stat, cells = chi2_two_sample ts td in
      let df = float_of_int (max 1 (cells - 1)) in
      Hashtbl.length ts = Hashtbl.length td && stat < df +. (7.0 *. sqrt (2.0 *. df)) +. 15.0)

(* ------------------------------------------------------------------ *)
(* annihilator_subgroup edge cases                                    *)
(* ------------------------------------------------------------------ *)

let closure_of_gens ~dims gens = brute_closure ~dims gens

let test_annihilator_trivial_subgroup () =
  (* Hidden subgroup trivial: the sampler sees every character, so the
     annihilator of a spanning sample set is the trivial subgroup. *)
  let dims = [| 4; 3 |] in
  let ys = [ [| 1; 0 |]; [| 0; 1 |] ] in
  let gens = Coset_state.annihilator_subgroup ~dims ys in
  checki "annihilator trivial" 1 (List.length (closure_of_gens ~dims gens))

let test_annihilator_full_group () =
  (* Hidden subgroup = G: every sample is the zero character and the
     annihilator is all of G. *)
  let dims = [| 4; 3 |] in
  let ys = [ [| 0; 0 |]; [| 0; 0 |] ] in
  let gens = Coset_state.annihilator_subgroup ~dims ys in
  checki "annihilator full" 12 (List.length (closure_of_gens ~dims gens));
  (* and with no samples at all *)
  let gens = Coset_state.annihilator_subgroup ~dims [] in
  checki "no samples -> full" 12 (List.length (closure_of_gens ~dims gens))

let test_annihilator_mixed_dims_brute () =
  (* Non-square mixed prime-power dims: agreement with the brute-force
     character kernel, including that every returned generator pairs
     trivially with every sample. *)
  let st = rng () in
  let dims = [| 4; 3; 9; 2 |] in
  let l = Array.fold_left Numtheory.Arith.lcm 1 dims in
  for _ = 1 to 10 do
    let ys = random_gens st ~dims ~count:(1 + Random.State.int st 3) in
    let gens = Coset_state.annihilator_subgroup ~dims ys in
    List.iter
      (fun g ->
        List.iter
          (fun y ->
            let s = ref 0 in
            Array.iteri (fun i gi -> s := !s + (gi * y.(i) * (l / dims.(i)))) g;
            checki "character trivial on annihilator" 0 (Numtheory.Arith.emod !s l))
          ys)
      gens;
    (* the closure is exactly the brute-force kernel *)
    let kernel =
      List.filter
        (fun xl ->
          let x = Array.of_list xl in
          List.for_all
            (fun y ->
              let s = ref 0 in
              Array.iteri (fun i xi -> s := !s + (xi * y.(i) * (l / dims.(i)))) x;
              Numtheory.Arith.emod !s l = 0)
            ys)
        (brute_closure ~dims
           (List.init (Array.length dims) (fun i ->
                Array.init (Array.length dims) (fun j -> if i = j then 1 else 0))))
    in
    checkb "matches brute kernel" true (closure_of_gens ~dims gens = kernel)
  done

let test_annihilator_character_agreement () =
  (* Qft.character_is_trivial_on agrees with annihilator membership. *)
  let st = rng () in
  let dims = [| 6; 4 |] in
  for _ = 1 to 20 do
    let ys = random_gens st ~dims ~count:2 in
    let gens = Coset_state.annihilator_subgroup ~dims ys in
    List.iter
      (fun y ->
        List.iter
          (fun g -> checkb "trivial on gens" true (Qft.character_is_trivial_on ~dims y g))
          gens)
      ys
  done

(* The Smith-normal-form route to the annihilator, the integer kernel
   of [Y diag(l/d) | l I]: the oracle for annihilator_subgroup.  The
   two return different generating sets of the same subgroup, so they
   are compared by canonical HNF. *)
let snf_annihilator ~dims ys =
  let r = Array.length dims in
  let l = Array.fold_left Numtheory.Arith.lcm 1 dims in
  match ys with
  | [] -> List.init r (fun i -> Array.init r (fun j -> if i = j then 1 else 0))
  | _ ->
      let m = Array.of_list (List.map (fun y -> Array.init r (fun i -> y.(i) * (l / dims.(i)))) ys) in
      Numtheory.Zmatrix.kernel_mod ~moduli:(Array.make (Array.length m) l) m

let qcheck_annihilator_vs_snf =
  QCheck.Test.make ~name:"annihilator = SNF route (canonical HNF)" ~count:300
    (QCheck.make ~print:print_dims_gens gen_dims_gens)
    (fun (dims, ys) ->
      let gens = Coset_state.annihilator_subgroup ~dims ys in
      let hnf = Numtheory.Zmatrix.hnf_basis ~dims in
      Numtheory.Zmatrix.equal (hnf gens) (hnf (snf_annihilator ~dims ys))
      && List.for_all
           (fun g ->
             Array.length g = Array.length dims
             && Array.exists2 (fun x d -> x mod d <> 0) g dims
             && List.for_all (fun y -> Qft.character_is_trivial_on ~dims y g) ys)
           gens)

(* ------------------------------------------------------------------ *)
(* Cryptographic scale                                                *)
(* ------------------------------------------------------------------ *)

let test_large_group_sampling () =
  (* Z_4^60, |G| = 2^120: plant H, draw samples, recover H exactly via
     annihilator_subgroup + HNF equality — the Theorem 3 pipeline at a
     size no amplitude backend can touch. *)
  let st = rng () in
  let r = 60 in
  let dims = Array.make r 4 in
  (* H = <2e_{2i} + 2e_{2i+1}, e_{2i} + e_{2i+1} doubled>: per pair of
     coordinates the order-4 cyclic subgroup {(0,0),(1,1),(2,2),(3,3)},
     so |H| = 4^30 = 2^60. *)
  let gens =
    List.init (r / 2) (fun i ->
        Array.init r (fun j -> if j = (2 * i) || j = (2 * i) + 1 then 1 else 0))
  in
  let planted = Backend_symbolic.Subgroup.of_gens ~dims gens in
  let queries = Query.create () in
  let draw =
    (* force symbolic: a dense/sparse session default would otherwise
       try to enumerate the 2^60-element coset. *)
    Coset_state.sampler_with_subgroup ~backend:Backend.Symbolic ~dims ~subgroup:gens ~queries ()
  in
  let samples = List.init 200 (fun _ -> draw st) in
  let rec_gens = Coset_state.annihilator_subgroup ~dims samples in
  let recovered = Backend_symbolic.Subgroup.of_gens ~dims rec_gens in
  checkb "recovered = planted" true (Backend_symbolic.Subgroup.equal recovered planted);
  checkb "order log2" true
    (Float.abs (Backend_symbolic.Subgroup.order_log2 planted -. 60.0) < 1e-9)

(* A planted round at Z_2^64 pays for its two draws (the x0 draw and
   one [hnf_sample], 65 words each) plus a fixed overhead of boxes,
   closures and the state records: 198 words.  The eager rewrite, which
   reduced x0 and built and reduced a zero representative, allocated
   566. *)
let test_planted_round_allocation () =
  Metrics.set_tracer None;
  let dims = Array.make 64 2 in
  let st = rng () in
  let draw =
    Coset_state.sampler_with_subgroup ~backend:Backend.Symbolic ~dims
      ~subgroup:(random_gens st ~dims ~count:32) ~queries:(Query.create ()) ()
  in
  (* the first round solves and memoises the annihilator *)
  ignore (draw st);
  let rounds = 2000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (draw st)
  done;
  let per_round = (Gc.minor_words () -. before) /. float_of_int rounds in
  checkb (Printf.sprintf "a round allocates %.1f <= 264 minor words" per_round) true
    (per_round <= 264.0)

let () =
  Alcotest.run "symbolic"
    [
      ( "subgroup",
        [
          Alcotest.test_case "basics and dual" `Quick test_subgroup_basics;
          Alcotest.test_case "reduce is a coset label" `Quick test_reduce_coset_invariant;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "matches dense DFT" `Quick test_rewrite_matches_dense;
          Alcotest.test_case "ledger" `Quick test_rewrite_ledger;
          Alcotest.test_case "sweep ledger on every backend" `Quick test_sweep_ledger;
        ] );
      ( "of_indices",
        [
          Alcotest.test_case "symbolic choice lands on sparse" `Quick
            test_of_indices_symbolic_is_sparse;
        ] );
      ( "demotion",
        [
          Alcotest.test_case "amplitude ops agree" `Quick test_demotion_equivalence;
          Alcotest.test_case "mid-sweep replay" `Quick test_mid_sweep_demotion;
          Alcotest.test_case "partial sweeps vs dense" `Quick test_partial_sweep_demotion_random;
          Alcotest.test_case "sweep rejections" `Quick test_sweep_rejections;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_measure_deterministic;
          Alcotest.test_case "measure_all fast path" `Quick test_measure_all_fast_path;
          Alcotest.test_case "differential vs dense" `Quick test_sampler_differential;
        ] );
      ( "annihilator",
        [
          Alcotest.test_case "trivial subgroup" `Quick test_annihilator_trivial_subgroup;
          Alcotest.test_case "full group" `Quick test_annihilator_full_group;
          Alcotest.test_case "mixed dims vs brute force" `Quick test_annihilator_mixed_dims_brute;
          Alcotest.test_case "character agreement" `Quick test_annihilator_character_agreement;
        ] );
      ( "scale",
        [
          Alcotest.test_case "Z_4^60 recovery" `Quick test_large_group_sampling;
          Alcotest.test_case "planted round allocation" `Quick test_planted_round_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_differential;
            qcheck_lazy_vs_eager;
            qcheck_reduce_vs_reference;
            qcheck_sample_vs_reference;
            qcheck_annihilator_vs_snf;
            qcheck_span_order_free;
            qcheck_span_member;
            qcheck_span_freeze;
          ] );
    ]
