open Groups

type 'a result = {
  generators : 'a list;
  transversal_size : int;
  quotient_order : int;
}

let check_elementary_2 dec =
  if Array.exists (fun d -> d <> 2) dec.Abelian.dims then
    invalid_arg "Elem_abelian2: N is not an elementary Abelian 2-group"

(* For one z, run the Ettinger–Hoyer-style Abelian HSP on Z_2 x N with
   F(0,x) = f(x), F(1,x) = f(xz); return Some (u*z) in H if zN meets H. *)
let probe rng (g : 'a Group.t) (hiding : 'a Hiding.t) dec z =
  let n_dims = dec.Abelian.dims in
  let dims = Array.append [| 2 |] n_dims in
  let part tuple = Array.sub tuple 1 (Array.length n_dims) in
  let elem_of tuple i =
    let x = dec.Abelian.of_exponents (part tuple) in
    if i = 0 then x else g.Group.mul x z
  in
  let f tuple = hiding.Hiding.raw (elem_of tuple tuple.(0)) in
  let f1 = Hiding.eval hiding g.Group.id in
  let verify tuple = Hiding.eval hiding (elem_of tuple tuple.(0)) = f1 in
  let gens, _ =
    Abelian_hsp.solve_dims rng ~dims ~f ~quantum:hiding.Hiding.quantum ~verify ()
  in
  List.find_map
    (fun tuple ->
      if tuple.(0) = 1 then begin
        let u = dec.Abelian.of_exponents (part tuple) in
        let h = g.Group.mul u z in
        if Hiding.eval hiding h = f1 then Some h else None
      end
      else None)
    gens

let assemble rng (g : 'a Group.t) (hiding : 'a Hiding.t) ~n_gens dec transversal =
  let h_cap_n_gens = Abelian_hsp.solve_on_subgroup rng g n_gens hiding in
  let collected =
    List.filter_map
      (fun z -> if g.Group.equal z g.Group.id then None else probe rng g hiding dec z)
      transversal
  in
  Quantum.Metrics.phase Classical (fun () ->
      Normal_hsp.generating_subset g (h_cap_n_gens @ collected))

let solve_general rng (g : 'a Group.t) ~n_gens (hiding : 'a Hiding.t) =
  let dec = Abelian.decompose_subgroup g n_gens in
  check_elementary_2 dec;
  let n_elems = Group.closure g n_gens in
  let n_table = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace n_table (g.Group.repr x) ()) n_elems;
  let in_n x = Hashtbl.mem n_table (g.Group.repr x) in
  (* Transversal of G/N by the paper's round-based construction:
     adjoin vg whenever it lies in no represented coset (membership of
     w^-1 v g in N is a black-box test on the Abelian group N). *)
  let v = ref [ g.Group.id ] in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        List.iter
          (fun w ->
            let c = g.Group.mul w s in
            if not (List.exists (fun w' -> in_n (g.Group.mul (g.Group.inv w') c)) !v)
            then begin
              v := c :: !v;
              changed := true
            end)
          !v)
      g.Group.generators
  done;
  let transversal = !v in
  Log.debug (fun m -> m "theorem 13 (general): transversal size %d" (List.length transversal));
  let generators =
    assemble rng g hiding ~n_gens:(Array.to_list dec.Abelian.basis) dec transversal
  in
  {
    generators;
    transversal_size = List.length transversal;
    quotient_order = List.length transversal;
  }

let solve_cyclic rng (g : 'a Group.t) ~n_gens (hiding : 'a Hiding.t) =
  let dec = Abelian.decompose_subgroup g n_gens in
  check_elementary_2 dec;
  (* orders in G/N divide |G/N| = |G| / |N|, which sizes the Fourier
     register far tighter than |G| *)
  let bound = max 1 (Group.order g / Abelian.order dec) in
  let queries = hiding.Hiding.quantum in
  (* Orders of the generator images in G/N by quantum order finding
     (Theorem 10); G/N cyclic means its order m is their lcm, and for
     each prime power p^h || m some single generator image already has
     order divisible by p^h — its suitable power generates the Sylow
     p-subgroup of G/N.  (The paper reaches the same x_p by random
     sampling; with the generators' orders in hand the scan is
     deterministic.) *)
  let gen_orders =
    List.map
      (fun t -> (t, Order_finding.order_mod_generated rng g n_gens t ~bound ~queries))
      g.Group.generators
  in
  let m = List.fold_left (fun acc (_, o) -> Numtheory.Arith.lcm acc o) 1 gen_orders in
  let transversal =
    if m = 1 then []
    else
      List.concat_map
        (fun (p, h) ->
          let ph = Numtheory.Arith.pow p h in
          let t, o = List.find (fun (_, o) -> o mod ph = 0) gen_orders in
          let x_p = Group.pow g t (o / ph) in
          (* generators of every p-subgroup of G/N: x_p^(p^j), j = 0..h *)
          List.init (h + 1) (fun j -> Group.pow g x_p (Numtheory.Arith.pow p j)))
        (Numtheory.Primes.factorize m)
  in
  Log.debug (fun m' ->
      m' "theorem 13 (cyclic): |G/N| = %d, transversal size %d" m (List.length transversal));
  let generators =
    assemble rng g hiding ~n_gens:(Array.to_list dec.Abelian.basis) dec transversal
  in
  { generators; transversal_size = List.length transversal; quotient_order = m }
