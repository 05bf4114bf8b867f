open Groups

(** The Abelian hidden subgroup problem (Theorem 3 / Lemma 9).

    The standard quantum algorithm: repeat Fourier sampling over
    [A ~ Z_{d_1} x ... x Z_{d_r}] to draw uniform elements of the
    annihilator [H^perp]; recover [H] as the joint kernel of the
    sampled characters (exact integer computation: the HNF dual of the
    samples' HNF basis); verify the candidate generators with classical
    queries and resample on failure.

    The verification makes the procedure Las Vegas: the kernel of any
    character sample set *contains* [H], and every returned generator
    is classically checked to lie in [H], so the output generates
    exactly [H] whenever it validates. *)

type outcome = { rounds : int  (** Fourier-sampling rounds performed *) }

val solve_dims :
  Random.State.t ->
  ?draw:(Random.State.t -> int array) ->
  dims:int array ->
  f:(int array -> int) ->
  quantum:Quantum.Query.t ->
  ?verify:(int array -> bool) ->
  unit ->
  int array list * outcome
(** Solve over [Z_dims(0) x ...] given the hiding function on exponent
    tuples; [f] must not retain its argument, which the default
    sampler lends it ({!Quantum.Coset_state.sampler}).  [verify]
    defaults to the membership test [f x = f 0], with [f 0] evaluated
    once per solve.
    Returns generators of the hidden subgroup (as tuples).  The samples
    go into one {!Numtheory.Zmatrix.span} per solve, so a batch that
    fails verification adds only the next batch's samples.

    The default sampler is {!Quantum.Coset_state.sampler}, on the
    backend {!Quantum.Coset_state.oracle_backend} resolves.
    [draw] substitutes the Fourier-sampling round wholesale (e.g.
    {!Quantum.Coset_state.sampler_with_subgroup} for planted instances
    beyond the dense cap, where the O(|A|) oracle expansion of the
    default sampler is itself infeasible); it must return character
    samples with the {!Quantum.Coset_state.sampler} distribution and do
    its own query accounting. *)

val solve : Random.State.t -> 'a Group.t -> 'a Hiding.t -> 'a list
(** Solve over any Abelian black-box group: decompose the group
    (Theorem 1), transport the hiding function to exponent tuples,
    Fourier sample, and map the recovered generators back to group
    elements. *)

val solve_on_subgroup : Random.State.t -> 'a Group.t -> 'a list -> 'a Hiding.t -> 'a list
(** Solve the HSP for the restriction of the hiding function to the
    Abelian subgroup generated by the given elements (used by
    Theorem 13 to compute [H ∩ N]). *)

(** The planted quotient instance of {!Instances.quotient_gens}, solved
    and checked against its ground truth. *)
type quotient_solve = {
  gens : int array list;  (** recovered generators, as tuples *)
  rounds : int;  (** Fourier-sampling rounds performed *)
  seconds : float;  (** wall clock of the solve, not of the check *)
  recovered : Quantum.Backend_symbolic.Subgroup.t;  (** the span of [gens] *)
  ok : bool;  (** [gens] lie in [H] and generate exactly [H] *)
}

val solve_quotient :
  Random.State.t ->
  ?truth:Quantum.Backend_symbolic.Subgroup.t ->
  draw:(Random.State.t -> int array) ->
  dims:int array ->
  moduli:int array ->
  quantum:Quantum.Query.t ->
  unit ->
  quotient_solve
(** {!solve_dims} on [H = prod m_i Z_{d_i}] with {!Instances.quotient_oracle}
    and verification by {!Instances.quotient_mem}, then canonical-HNF
    equality against [truth] ({!Instances.quotient_subgroup}, built
    here when not given).  Exact at any size: nothing is
    enumerated. *)
