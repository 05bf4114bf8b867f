open Groups

let solve rng ~k (hiding : Wreath.elt Hiding.t) =
  let g = Wreath.group k in
  let n_gens = Wreath.base_gens k in
  (* |G/N| = 2: the transversal is {1, swap}; H ∩ N and one probe of
     the swap coset determine H. *)
  Elem_abelian2.assemble rng g hiding ~n_gens (Abelian.decompose_subgroup g n_gens)
    [ g.Group.id; Wreath.swap_elt k ]
