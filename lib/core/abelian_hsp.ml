open Groups

type outcome = { rounds : int }

let solve_dims rng ?draw ~dims ~f ~quantum ?verify () =
  let verify =
    match verify with
    | Some v -> v
    | None ->
        let f0 = f (Array.make (Array.length dims) 0) in
        fun x -> Int.equal (f x) f0
  in
  (* log2 |A| + slack samples per batch: each sample halves the kernel
     in expectation, so one batch almost always suffices. *)
  let batch =
    Array.fold_left (fun acc d -> acc + Numtheory.Arith.ilog2 (max 2 d) + 1) 4 dims
  in
  let max_batches = 32 in
  let draw =
    match draw with
    | Some d -> d
    | None -> Quantum.Coset_state.sampler ~dims ~f ~queries:quantum ()
  in
  (* The span of every sample drawn so far: a batch that fails
     verification adds only its successor's samples to it. *)
  let span = Numtheory.Zmatrix.hnf_span ~dims in
  let rec go batches =
    if batches > max_batches then
      invalid_arg "Abelian_hsp.solve_dims: sampling failed to converge (is f a hiding function?)";
    let fresh = List.init batch (fun _ -> draw rng) in
    let gens =
      Quantum.Metrics.phase Classical (fun () ->
          List.iter (fun y -> ignore (Numtheory.Zmatrix.hnf_insert span y)) fresh;
          Quantum.Coset_state.annihilator_gens (Numtheory.Zmatrix.hnf_freeze span))
    in
    if List.for_all verify gens then begin
      Log.debug (fun m ->
          m "abelian HSP solved: %d samples, %d generators" (batches * batch)
            (List.length gens));
      (gens, { rounds = batches * batch })
    end
    else begin
      Log.debug (fun m ->
          m "abelian HSP batch %d failed verification; resampling" batches);
      go (batches + 1)
    end
  in
  go 1

(* Every solve over a black-box Abelian group starts from a
   decomposition; the caller picks which, since the element order it
   fixes decides the draws. *)
let solve_decomposed rng (g : 'a Group.t) (hiding : 'a Hiding.t) dec =
  let dims = dec.Abelian.dims in
  if Array.length dims = 0 then []
  else begin
    let f tuple = hiding.Hiding.raw (dec.Abelian.of_exponents tuple) in
    let verify tuple = Hiding.in_hidden_subgroup g hiding (dec.Abelian.of_exponents tuple) in
    let gens, _ = solve_dims rng ~dims ~f ~quantum:hiding.Hiding.quantum ~verify () in
    List.map dec.Abelian.of_exponents gens
  end

let solve rng g hiding = solve_decomposed rng g hiding (Abelian.decompose g)

let solve_on_subgroup rng g n_gens hiding =
  solve_decomposed rng g hiding (Abelian.decompose_subgroup g n_gens)

type quotient_solve = {
  gens : int array list;
  rounds : int;
  seconds : float;
  recovered : Quantum.Backend_symbolic.Subgroup.t;
  ok : bool;
}

let solve_quotient rng ?truth ~draw ~dims ~moduli ~quantum () =
  let in_h = Instances.quotient_mem ~moduli in
  let t0 = Unix.gettimeofday () in
  let gens, outcome =
    solve_dims rng ~draw ~dims ~f:(Instances.quotient_oracle ~moduli) ~quantum ~verify:in_h ()
  in
  let seconds = Unix.gettimeofday () -. t0 in
  (* Ground truth is the planted subgroup in closed form; canonical-HNF
     equality decides "generates exactly H" in O(r^2) at any size, with
     no closure enumeration. *)
  let truth =
    match truth with Some t -> t | None -> Instances.quotient_subgroup ~dims ~moduli
  in
  let recovered = Quantum.Backend_symbolic.Subgroup.of_gens ~dims gens in
  let ok = List.for_all in_h gens && Quantum.Backend_symbolic.Subgroup.equal truth recovered in
  { gens; rounds = outcome.rounds; seconds; recovered; ok }
