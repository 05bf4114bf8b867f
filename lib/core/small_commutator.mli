open Groups

(** HSP in groups with small commutator subgroup (Theorem 11,
    Corollary 12).

    For any hidden subgroup [H <= G] the algorithm runs in time
    polynomial in the input size plus [|G'|]:

    1. enumerate [G'] (products of conjugates of generator
       commutators) and read off [H ∩ G'] with [|G'|] classical
       queries;
    2. the set-valued function [F(x) = {f(xg) : g in G'}] hides [HG'],
       which is normal (G/G' is Abelian); find generators of [HG'] by
       Theorem 8 — each [F] evaluation costs [|G'|] queries to [f];
    3. for each generator [x] of [HG'], scan the coset [xG'] for an
       element of [H] ([|G'|] queries);
    4. [H = < selected elements, H ∩ G' >] by the isomorphism-theorem
       argument of the paper. *)

type 'a result = {
  generators : 'a list;  (** generators of [H] *)
  commutator_order : int;  (** [|G'|] *)
}

val solve : Random.State.t -> 'a Group.t -> 'a Hiding.t -> 'a result

val solve_gens : Random.State.t -> 'a Group.t -> 'a Hiding.t -> 'a list
(** Just the generators of [H]. *)

val solve_via_theorem8 : Random.State.t -> 'a Group.t -> 'a Hiding.t -> 'a result
(** Alternative route following the paper's text literally: find [HG']
    with the Theorem 8 machinery (presentation of [G/HG'] in the
    secondary encoding) instead of direct Abelian Fourier sampling.
    Same output; more classical bookkeeping.  Kept for
    cross-validation. *)
