(** Symbolic coset-state backend: exact simulation with no amplitude
    array and no total-dimension integer.

    Every state the paper's samplers prepare is structurally trivial —
    a coset state [|c+H>], or its Abelian Fourier image, a phased
    subgroup state on the annihilator [H^perp].  This backend stores
    exactly that structure over [A = Z_{d_0} x ... x Z_{d_{r-1}}]: a
    subgroup [H] as a canonical Hermite-normal-form basis
    ({!Numtheory.Zmatrix}), and either a coset representative [c]

    [|c+H> = 1/sqrt|H| * sum_{x in c+H} |x>]

    or a character vector [p]

    [|H, p> = 1/sqrt|H| * sum_{y in H} chi_p(y) |y>].

    The two shapes are closed under the operations the samplers
    perform:

    - {e Abelian DFT} (forward, [omega^{+xy}] convention): [|c+H>]
      goes to [|H^perp, c>] and [|H, p>] to [|-p + H^perp>] (inverse:
      [|H^perp, -c>] and [|p + H^perp>]).  The rewrite is the memoised
      annihilator and at most an O(r) negation, with no reduction and
      no global phase: a state has [p = 0] or [c = 0], so the phase
      [chi_p(c)] of the general form is always 1 ({!fourier}).  It is
      whole-register only: {!State.fourier} applies it when the swept
      wires are a permutation of the register, and demotes to the
      dense backend for a single-wire DFT or a partial sweep, which
      have no closed form here.
    - {e Measurement} of the full register: a uniform draw from the
      support via triangular-basis sampling — exactly uniform, so the
      sampled character distribution matches the dense backend's in
      law (the differential suite checks this with a chi-squared
      gate).

    A coset state keeps the representative it was built from; the
    canonical one ({!Subgroup.reduce}) is computed where it is read —
    a measurement of a coset, [amp_at], [iter_nonzero], {!demote} and
    {!approx_equal} — so every outcome is the one the reduced
    representative gives.

    Costs are O(r^2) per operation and O(r^2) memory (the HNF steps walk
    only each basis row's nonzero entries, so sparse bases cost less) — [Z_2^200]-shaped
    groups are as cheap as [Z_2^2].  Work is charged to the {!Metrics}
    ledger under [symbolic_rewrites], [symbolic_samples],
    [symbolic_solves] and [symbolic_demotions].

    Determinism: subgroups are canonical HNF bases, every read goes
    through the canonical representative, enumeration order is
    coefficient-lexicographic, and a measurement consumes the RNG
    exactly [r] bounded draws, so runs are reproducible for a fixed
    seed and independent of the job count (no parallelism is involved
    at all).

    States are built from subgroup structure only ({!of_coset}); an
    amplitude or index input is never searched for coset structure, so
    the oracle route's buckets land on the amplitude backends.  Every
    amplitude-level operation — gates, oracles, tensor products,
    marginals, partial measurement, a single-wire DFT — is the dense
    backend's: the {!State} dispatcher hands it a {!demote}d copy
    (capped at {!Backend.Caps.symbolic_materialise}). *)

(** Subgroups of [Z_{d_0} x ... x Z_{d_{r-1}}] in canonical HNF form,
    with memoised annihilator.  Shared across all states drawn from one
    sampler so the normal-form solves happen once per oracle, not once
    per sample. *)
module Subgroup : sig
  type t

  val of_gens : dims:int array -> int array list -> t
  (** Canonicalise a generator list (ledger: [symbolic_solves]). *)

  val trivial : int array -> t
  val full : int array -> t
  val dims : t -> int array
  val basis : t -> Numtheory.Zmatrix.t
  val order_log2 : t -> float
  val order_int : t -> int option
  val mem : t -> int array -> bool
  val reduce : t -> int array -> int array
  (** Canonical coset representative of [x + H]. *)

  val sample : Random.State.t -> t -> int array
  (** Uniform subgroup element (ledger: [symbolic_samples]). *)

  val elements : t -> int array list
  (** All elements, deterministic order.
      @raise Invalid_argument beyond
      {!Backend.Caps.symbolic_materialise}. *)

  val equal : t -> t -> bool
  (** Subgroup equality — exact, via canonical-basis comparison. *)

  val dual : t -> t
  (** The annihilator [H^perp]; memoised, and the memo links back so
      [dual (dual h)] is O(1).  (Ledger: [symbolic_solves] on the first
      call.) *)
end

type t

(** {2 Constructors} *)

val of_coset : Subgroup.t -> int array -> t
(** [of_coset sub rep] is the uniform superposition over [rep + H] —
    the state [Coset_state.sampler_with_subgroup] feeds to the Fourier
    pass.  [rep] is not reduced: it is kept as given when every entry
    is in range (so the caller must not mutate it afterwards), and
    otherwise replaced by its entries mod the dims.  Phased states
    arise only from {!fourier}. *)

(** {2 Structure access} *)

val dims : t -> int array
val num_wires : t -> int

val support_size : t -> int
(** [|H|], clamped to [max_int] when it overflows. *)

(** {2 Operations} *)

val fourier : t -> inverse:bool -> t
(** The DFT of the whole register as the closed-form rewrite
    [|c+H> -> |H^perp, c>], [|H, p> -> |-p + H^perp>] (inverse:
    [|H^perp, -c>], [|p + H^perp>]): the memoised annihilator and at
    most one O(r) negation, so the forward image of a coset state is
    O(1) (ledger: [symbolic_rewrites]).  Wire order is immaterial,
    since the per-wire DFTs commute. *)

val can_measure : t -> wires:int list -> bool
(** True iff [wires] covers the register. *)

val measure : Random.State.t -> t -> wires:int list -> int array * t
(** Full-register measurement: uniform coset draw, basis post-state.
    @raise Invalid_argument where {!can_measure} is false. *)

val measure_all : Random.State.t -> t -> int array
(** [fst (measure rng st ~wires:[0; ...; r-1])] with the same RNG use,
    but no post-state, so no normal-form solve (ledger:
    [symbolic_samples] only).  On a phased state — every Fourier
    image of a coset — the outcome is the {!Subgroup.sample} draw
    itself. *)

val norm : t -> float
(** Always [1.0] — symbolic states are unit by construction. *)

(** {2 Amplitude views (small states only)} *)

val amp_at : t -> int -> Linalg.Cx.t

val iter_nonzero : t -> (int -> Linalg.Cx.t -> unit) -> unit
(** In increasing encoded-index order.
    @raise Invalid_argument beyond
    {!Backend.Caps.symbolic_materialise}. *)

val demote : t -> Backend_dense.t
(** Materialise into the dense backend (ledger: [symbolic_demotions]).
    @raise Invalid_argument when the subgroup exceeds
    {!Backend.Caps.symbolic_materialise} elements, or the register
    {!Backend.Caps.dense_state} amplitudes. *)

val approx_equal : ?eps:float -> t -> t -> bool
(** Same subgroup, same canonical representative, and amplitudes
    agreeing there and at each basis-row offset — which pins the full
    amplitude function, since characters agreeing on generators agree
    on the subgroup. *)
