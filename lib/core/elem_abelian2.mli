open Groups

(** HSP in groups with an elementary Abelian normal 2-subgroup
    (Theorem 13), generalising Rötteler–Beth's wreath products.

    [N <| G] elementary Abelian of exponent 2, given by generators.
    The solver builds [H_1 <= H] with [H_1 ∩ N = H ∩ N] and
    [H_1 N = H N], which forces [H_1 = H]:

    - [H ∩ N] is the hidden subgroup of [f] restricted to [N]
      (Theorem 3: Abelian HSP).
    - A set [V] containing generators of every subgroup of [G/N]:
      in the {e general} case, a full transversal of [G/N]
      (so the cost is polynomial in [input + |G/N|]);
      in the {e cyclic-factor} case, prime-power powers
      [x_p^(p^j)] of Sylow generators of [G/N] found by quantum order
      finding (Theorem 10), so [|V| = O(log |G/N|)] and everything is
      polynomial.
    - For each [z] in [V \ {1}], the Ettinger–Hoyer-style function
      [F(0, x) = f(x), F(1, x) = f(xz)] on [Z_2 x N] hides either
      [{0} x (H ∩ N)] (when [zN ∩ H] is empty) or its extension by
      [(1, u)] with [uz in H]; one more Abelian HSP yields the
      witness [u]. *)

type 'a result = {
  generators : 'a list;  (** generators of [H] *)
  transversal_size : int;  (** [|V|] *)
  quotient_order : int;  (** [|G/N|] *)
}

val solve_general : Random.State.t -> 'a Group.t -> n_gens:'a list -> 'a Hiding.t -> 'a result
(** Arbitrary [G/N]; cost polynomial in [input + |G/N|]. *)

val solve_cyclic : Random.State.t -> 'a Group.t -> n_gens:'a list -> 'a Hiding.t -> 'a result
(** Requires [G/N] cyclic; fully polynomial. *)

val assemble :
  Random.State.t ->
  'a Group.t ->
  'a Hiding.t ->
  n_gens:'a list ->
  'a Abelian.t ->
  'a list ->
  'a list
(** [assemble rng g hiding ~n_gens dec v]: the shared last step of
    both solvers.  Solves [H ∩ N] on the subgroup [n_gens] generate,
    probes each [z] in [v \ {1}] over [dec] (a decomposition of [N]),
    and returns generators of [H].  The solvers above pass [dec]'s own
    basis as [n_gens]; {!Roetteler_beth} passes [N]'s given generators
    and [v = {1, swap}]. *)
