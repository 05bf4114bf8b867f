open Groups

type 'a result = { generators : 'a list; commutator_order : int }

(* F(x) = the value set of f on the coset xG', canonically encoded.
   Each evaluation queries f |G'| times, as in the paper. *)
let coset_set_oracle (g : 'a Group.t) (hiding : 'a Hiding.t) g'_elems =
  let intern : (string, int) Hashtbl.t = Hashtbl.create 64 in
  fun x ->
    let values =
      List.sort_uniq Int.compare
        (List.map (fun c -> Hiding.eval hiding (g.Group.mul x c)) g'_elems)
    in
    let key = String.concat "," (List.map string_of_int values) in
    match Hashtbl.find_opt intern key with
    | Some k -> k
    | None ->
        let k = Hashtbl.length intern in
        Hashtbl.add intern key k;
        k

let finish rng (g : 'a Group.t) (hiding : 'a Hiding.t) g'_elems hg'_gens =
  ignore rng;
  let f1 = Hiding.eval hiding g.Group.id in
  let h_cap_g' = List.filter (fun x -> Int.equal (Hiding.eval hiding x) f1) g'_elems in
  (* For each generator x of HG', pick an element of xG' ∩ H. *)
  let selected =
    List.map
      (fun x ->
        let candidates =
          List.filter_map
            (fun c ->
              let y = g.Group.mul x c in
              if Hiding.eval hiding y = f1 then Some y else None)
            g'_elems
        in
        match candidates with
        | y :: _ -> y
        | [] ->
            invalid_arg
              "Small_commutator: coset of an HG' generator misses H (f is not a hiding \
               function?)")
      hg'_gens
  in
  Normal_hsp.generating_subset g (selected @ h_cap_g')

let solve rng (g : 'a Group.t) (hiding : 'a Hiding.t) =
  let g'_elems = Group.commutator_subgroup g in
  let commutator_order = List.length g'_elems in
  Log.debug (fun m -> m "theorem 11: |G'| = %d" commutator_order);
  let capital_f = coset_set_oracle g hiding g'_elems in
  (* F descends to the Abelian group G/G' and hides HG'/G' there; the
     standard Abelian HSP recovers it with O(log |G|) quantum queries
     (each costing |G'| evaluations of f).  The paper routes this step
     through Theorem 8, whose Beals–Babai presentation machinery
     specialises to exactly this Fourier sampling when the quotient is
     Abelian; see also {!solve_via_theorem8}. *)
  let quotient = Group.quotient g g'_elems in
  let capital_hiding =
    {
      Hiding.raw = capital_f;
      classical = hiding.Hiding.classical;
      quantum = hiding.Hiding.quantum;
    }
  in
  let coset_gens = Abelian_hsp.solve rng quotient capital_hiding in
  (* HG' is generated by the returned coset representatives together
     with G' itself. *)
  let hg'_generators = coset_gens @ Normal_hsp.generating_subset g g'_elems in
  let generators =
    Quantum.Metrics.phase Classical (fun () -> finish rng g hiding g'_elems hg'_generators)
  in
  { generators; commutator_order }

let solve_gens rng g hiding = (solve rng g hiding).generators

let solve_via_theorem8 rng (g : 'a Group.t) (hiding : 'a Hiding.t) =
  let g'_elems = Group.commutator_subgroup g in
  let commutator_order = List.length g'_elems in
  let capital_f = coset_set_oracle g hiding g'_elems in
  let capital_hiding =
    {
      Hiding.raw = capital_f;
      classical = hiding.Hiding.classical;
      quantum = hiding.Hiding.quantum;
    }
  in
  let normal = Normal_hsp.solve rng g capital_hiding in
  let hg'_generators = normal.Normal_hsp.generators in
  let generators =
    Quantum.Metrics.phase Classical (fun () -> finish rng g hiding g'_elems hg'_generators)
  in
  { generators; commutator_order }
