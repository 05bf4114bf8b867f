(** Dense integer matrices and the Smith normal form.

    The Smith normal form is the workhorse behind the Abelian
    post-processing of Fourier sampling: the hidden subgroup is the
    joint kernel (modulo the group exponents) of the sampled
    characters, i.e. the solution lattice of a system of linear
    congruences.  Entries are native [int]s; all inputs the simulator
    produces keep intermediate values far below overflow. *)

type t = int array array
(** Row-major, rectangular: [m.(i).(j)] is row [i], column [j].
    The empty matrix with [r] rows and 0 columns is [Array.make r [||]]. *)

val make : int -> int -> int -> t
val identity : int -> t
val copy : t -> t
val rows : t -> int
val cols : t -> int
val mul : t -> t -> t
val transpose : t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val apply : t -> int array -> int array
(** [apply a x] is the matrix-vector product [a * x]. *)

val snf : t -> t * t * t
(** [snf a] is [(u, d, v)] with [u * a * v = d], [u] and [v] unimodular
    and [d] diagonal with non-negative entries satisfying
    [d.(i).(i)] divides [d.(i+1).(i+1)]. *)

val diagonal_of_snf : t -> int array
(** The diagonal of a (rectangular) diagonal matrix, length
    [min rows cols]. *)

val kernel : t -> int array list
(** A basis of the integer kernel [{ x : a * x = 0 }]. *)

val kernel_mod : moduli:int array -> t -> int array list
(** [kernel_mod ~moduli a] returns generators (as a lattice containing
    [moduli.(i) * e_i] implicitly) of
    [{ x : (a * x).(i) = 0  mod moduli.(i) for all i }].
    The returned vectors generate the solution set as a subgroup of
    [Z^cols]; callers typically reduce coordinates modulo their own
    component orders. *)

val solve : t -> int array -> int array option
(** [solve a b] finds some integer solution of [a * x = b], or [None]. *)

val solve_mod : moduli:int array -> t -> int array -> int array option
(** [solve_mod ~moduli a b] finds [x] with
    [(a * x).(i) = b.(i) mod moduli.(i)] for all rows [i], or [None]. *)

(** {2 Hermite-normal-form subgroup calculus}

    Subgroups of [Z_{d_0} x ... x Z_{d_{r-1}}] as integer lattices
    containing [diag(dims)], canonicalised by the row-style Hermite
    normal form: upper triangular, positive diagonal with
    [h_ii | dims.(i)], above-diagonal entries reduced into [[0, h_ii)].
    Uniqueness of the form makes {!equal} a subgroup-equality test;
    the triangular shape gives O(r^2) membership, canonical coset
    representatives and uniform sampling — the machinery behind the
    symbolic coset-state backend, which never forms the total group
    order [prod dims] as an integer.  The subgroup's order is
    [prod (dims.(i) / h_ii)], exposed in log2 / checked-[int] form.
    Working rows may always be reduced modulo the dims because
    [dims.(i) * e_i] lies in every lattice considered, so every entry
    right of the column being eliminated stays in [[0, dims.(j))] and
    all intermediate values stay below [(max dims)^2].  A row update
    [a_j - q * b_j] with [a_j] in [[0, d)] and [q * b_j >= 0] is below
    [d], so whenever it lies above [-d] a compare-and-add brings it back
    into range.  Division happens only for the quotients (one per
    Euclid step, and one per canonicalised entry [b_ic >= h_cc]), for
    an update at or below [-d], and for a generator or input entry
    outside [[0, d)]; a step whose quotient is 0 does no row work. *)

val hnf_basis : dims:int array -> int array list -> t
(** [hnf_basis ~dims gens] is the canonical HNF basis ([r x r]) of the
    subgroup of [Z_{d_0} x ... x Z_{d_{r-1}}] generated by [gens].
    [gens = []] yields the trivial subgroup ([diag dims]).
    @raise Invalid_argument on a dimension [< 1] or a generator of the
    wrong arity. *)

type hnf
(** A prepared HNF basis: a basis checked once against its dims, with
    each row's nonzero columns right of the diagonal recorded.  Every
    step below takes one, so the check runs once per subgroup rather
    than once per call, and [hnf_reduce], [hnf_mem] and [hnf_sample]
    touch only a row's nonzero entries: a row with [k] of them costs
    O(k), not O(r). *)

val hnf_prepare : dims:int array -> t -> hnf
(** Check and prepare a canonical basis (as {!hnf_basis} returns):
    [r x r], zero below the diagonal, [h_ii >= 1] dividing [dims.(i)],
    and every above-diagonal [h_ij] in [[0, h_jj)].  The basis is not
    copied; it must not be mutated afterwards.
    @raise Invalid_argument on any other matrix or a dimension [< 1]. *)

val hnf_dims : hnf -> int array
val hnf_rows : hnf -> t
(** The dims and the basis [hnf_prepare] was given. *)

val hnf_order_log2 : hnf -> float
(** log2 of the subgroup order — exact in structure, float in value, so
    it works for [Z_2^200]-sized groups. *)

val hnf_order_int : hnf -> int option
(** The subgroup order as an [int], or [None] if it overflows. *)

val hnf_mem : hnf -> int array -> bool
(** Membership by back-substitution along the triangular basis;
    coordinates are taken modulo [dims] first. *)

val hnf_reduce : hnf -> int array -> int array
(** The canonical coset representative: the unique element of
    [x + subgroup] with [i]-th coordinate in [[0, h_ii)].  Two inputs
    reduce to the same tuple iff they lie in the same coset. *)

val hnf_sample : Random.State.t -> hnf -> int array
(** A uniformly distributed subgroup element: uniform coefficients
    [c_i in [0, dims.(i)/h_ii)] against the basis rows — a bijection
    onto the subgroup, so the draw is exactly uniform.  Exactly [r]
    bounded draws ([Random.State.full_int]), one per row in row order,
    rows with a single choice included. *)

val hnf_elements : hnf -> int array list
(** All subgroup elements, in deterministic (coefficient-lexicographic)
    order.
    @raise Invalid_argument if the order overflows an [int]; callers
    should bound it via {!hnf_order_int} first. *)

val hnf_dual : hnf -> t
(** The annihilator subgroup
    [{ y : sum_i y_i x_i / dims.(i) in Z  for all subgroup x }], i.e.
    the characters trivial on the subgroup, as a canonical HNF basis.
    [|H| * |H^dual| = prod dims]; the dual of the dual is [H].
    One back-substitution along the triangular basis per coordinate
    (arithmetic mod [lcm dims]) gives [r] generators, which
    {!hnf_basis} canonicalises: O(r^3), no Smith normal form. *)
