open Groups

(** Constructive membership test in Abelian subgroups (Theorem 6).

    Given pairwise commuting elements [h_1, ..., h_r] of a (possibly
    non-Abelian) black-box group with unique encoding, and an element
    [g], either express [g] as a product of powers of the [h_i] or
    report that no expression exists.  Babai–Szemerédi proved this has
    no polynomial classical black-box algorithm; the paper's quantum
    solution reduces it to an Abelian HSP:

    compute the orders [s_i] of the [h_i] and [s] of [g] (Shor), then
    Fourier-sample the kernel of
    [phi(a_1, ..., a_r, a) = h_1^{a_1} ... h_r^{a_r} g^{-a}]
    over [Z_{s_1} x ... x Z_{s_r} x Z_s].  [g] lies in
    [<h_1, ..., h_r>] iff the kernel contains a vector whose last
    coordinate is a unit mod [s]; normalising that vector exhibits the
    exponents. *)

type witness = {
  exponents : int array;  (** [g = prod h_i ^ exponents.(i)] *)
}

val express :
  Random.State.t ->
  'a Group.t ->
  hs:'a list ->
  'a ->
  order_bound:int ->
  queries:Quantum.Query.t ->
  witness option
(** [express rng g ~hs x ~order_bound ~queries]: [Some w] with
    [prod hs_i^{w.exponents.(i)} = x], or [None] when [x] is not in
    the subgroup.  [order_bound] bounds every element order (e.g. the
    group exponent or [|G|]).
    @raise Invalid_argument if the [hs] do not pairwise commute or do
    not commute with... (they need not commute with [x]; only pairwise
    commutativity of [hs @ [x]] is required, as in the paper). *)
