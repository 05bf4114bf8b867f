(** Pure state simulation of a register of qudits.

    A register is a tuple of wires; wire [i] carries a qudit of
    dimension [dims.(i)].  The joint state is held by one of three
    backends ({!Backend}):

    - dense — a contiguous complex vector of dimension [prod dims]
      ({!Backend_dense}); exact, exponential in memory, capped at
      {!Backend.Caps.dense_state} amplitudes.  The one implementation
      of every amplitude-level operation;
    - sparse — a sorted segment of the nonzero amplitudes only
      ({!Backend_sparse}), running the Fourier-sampling pipeline alone:
      {!of_indices} / {!of_coset}, {!fourier} and {!measure_all}, at a cost that scales with the support, beyond
      the dense cap;
    - symbolic — no amplitudes at all ({!Backend_symbolic}): a
      phase-decorated coset state [(subgroup HNF basis, representative,
      character)] rewritten in closed form under the Abelian DFT and
      measured by uniform subgroup sampling, so [Z_2^200]-shaped
      registers cost O(r^2) per operation.

    Each input kind has one home.  The general constructors
    ({!create}, {!of_basis}, {!of_amplitudes}, {!uniform}) build dense.
    Index segments ({!of_indices}) land on dense or sparse, sparse by
    default; subgroup structure ({!of_coset}) on any backend, symbolic
    by default.  Only [?backend] picks among them: the session default
    is resolved by the sampling routes ({!Coset_state.oracle_backend},
    {!Coset_state.planted_backend}), never here.  There is no
    conversion call: a state changes representation only when a
    symbolic state demotes.

    The amplitude-level operations — {!tensor}, {!apply_wires},
    {!apply_basis_map}, {!apply_oracle_add}, {!probabilities} and
    {!measure} — run on dense.  A symbolic operand {e demotes} to dense
    first (support materialised, capped at
    {!Backend.Caps.symbolic_materialise}, ledger [symbolic_demotions]),
    as does a single-wire DFT or a partial sweep of a symbolic state,
    except that a full-register {!measure} stays a symbolic draw.  A
    sparse operand raises [Invalid_argument] naming the operation. *)

type t

val backend : t -> Backend.choice (* hsp-lint: allow unused-export *)
(** The concrete backend holding this state. *)

val create : int array -> t
(** [create dims] is the dense all-zeros basis state [|0,...,0>].
    @raise Invalid_argument if any dimension is [< 1] or the register
    exceeds {!Backend.Caps.dense_state} amplitudes. *)

val of_basis : int array -> int array -> t
(** [of_basis dims x] is the dense basis state [|x>]. *)

val of_amplitudes : int array -> Linalg.Cvec.t -> t (* hsp-lint: allow unused-export *)
(** Wraps (a copy of) a full amplitude vector in a dense state;
    normalises. *)

val of_indices : ?backend:Backend.choice -> int array -> int array -> t
(** [of_indices dims idxs] is the uniform superposition over the given
    pre-{e encoded} basis indices, which must be strictly increasing
    and in range.  The oracle route's constructor
    ({!Coset_state.sampler_of_prep}): the sparse backend adopts the
    array as its sorted segment directly — O(|idxs|), no sort, no
    hashing, no per-entry boxing.  [Dense] builds dense; [Sparse],
    [Symbolic] and an omitted [?backend] build sparse (an index segment
    carries no subgroup structure; symbolic states come from
    {!of_coset}).
    @raise Invalid_argument on an empty, unsorted or out-of-range
    index array. *)

val of_coset : ?backend:Backend.choice -> Backend_symbolic.Subgroup.t -> rep:int array -> t
(** [of_coset sub ~rep] is the uniform coset state [|rep + H>] — the
    entry point of the symbolic sampling pipeline
    ({!Coset_state.sampler_with_subgroup}).  Defaults to the symbolic
    backend (the caller handing us subgroup structure {e is} the
    opt-in); explicit [Dense]/[Sparse] enumerate the coset
    into its sorted index segment and adopt it as {!of_indices} would.
    @raise Invalid_argument on [Dense]/[Sparse] when [|H|] exceeds
    {!Backend.Caps.coset_sparse}, the cap of the oracle route's index
    tables. *)

val dims : t -> int array
val num_wires : t -> int

val support_size : t -> int
(** Number of nonzero amplitudes currently stored (for the dense
    backend, the count of nonzero entries; for a symbolic state, the
    subgroup order clamped to [max_int]). *)

val amplitudes : t -> Linalg.Cvec.t
(** The state materialised as a dense copy — an export, not a view of
    backend internals.  A symbolic state demotes.
    @raise Invalid_argument beyond {!Backend.Caps.dense_state}; use
    {!amp_at} / {!iter_nonzero} there. *)

val amp_at : t -> int -> Linalg.Cx.t (* hsp-lint: allow unused-export *)
(** Amplitude at a mixed-radix basis index, any backend, any size
    (symbolic: a membership test plus a character evaluation). *)

(* hsp-lint: allow unused-export *)
val iter_nonzero : t -> (int -> Linalg.Cx.t -> unit) -> unit
(** Iterate over the stored nonzero amplitudes (unspecified order;
    symbolic states enumerate their coset, capped at
    {!Backend.Caps.symbolic_materialise}). *)

val encode : int array -> int array -> int
(** [encode dims x] is the mixed-radix index of the basis tuple [x]. *)

val decode : int array -> int -> int array
(** Inverse of {!encode}. *)

val tensor : t -> t -> t
(** The dense product state; symbolic operands demote. *)

val uniform : int array -> t
(** Dense uniform superposition over all basis states. *)

val apply_wire : t -> wire:int -> Linalg.Cmat.t -> t
(** Apply a [d x d] unitary to a single wire of dimension [d]. *)

val apply_wires : t -> wires:int list -> Linalg.Cmat.t -> t
(** Apply a unitary acting jointly on the listed wires (in the given
    order, most significant first).  The matrix dimension must be the
    product of the wires' dimensions. *)

val fourier : ?plans:Linalg.Fft.plan array -> t -> wires:int list -> inverse:bool -> t
(** One Fourier sweep: the DFT {!Linalg.Cmat.dft} on each listed wire,
    in the listed order ({!Qft.forward} and {!Qft.backward} are one
    call each), in O(d log d) per populated fibre on the amplitude
    backends ({!Linalg.Fft}: straight-line for [d <= 5], radix-2, a
    direct sum for other small [d], or Bluestein).  [plans.(w)], when
    given, is the prebuilt plan of wire [w]'s dimension; omitted, each
    wire builds one.  The coset samplers keep one plan per wire
    dimension, so their rounds never rebuild one.  Ticks [dft_apps]
    once per listed wire on every backend.
    - Dense: one copy of the planes, then every wire in place, many
      fibres per call — bit-identical to folding single-wire sweeps
      over the wires, at one plane copy per sweep instead of per wire.
    - Sparse: the fold of {!Backend_sparse.apply_dft} over the wires.
    - Symbolic: when [wires] is a permutation of the whole register
      (checked in O(r), no sort), the closed-form rewrite
      [|c+H> -> |H^perp, c>], [|H, p> -> |-p + H^perp>]
      ({!Backend_symbolic.fourier}, one [symbolic_rewrites] tick) — a
      full {!Qft.forward} costs one memoised annihilator solve however
      large the group.  Any other
      sweep (a strict subset such as a single wire, a repeated wire)
      demotes once to the dense backend (ledger: [symbolic_demotions])
      and runs the dense sweep.
    An empty [wires] returns the state unchanged. *)

val apply_basis_map : t -> (int array -> int array) -> t
(** Relabel basis states by a bijection on tuples (a classical
    reversible circuit), checked in full.  [f] must not retain its
    argument. *)

val apply_oracle_add : t -> in_wires:int list -> out_wire:int -> f:(int array -> int) -> t
(** The standard oracle [|x>|y> -> |x>|y + f(x) mod d>] where [d] is
    the output wire's dimension and [x] ranges over the values of
    [in_wires]. *)

val probabilities : t -> wires:int list -> float array (* hsp-lint: allow unused-export *)
(** Marginal outcome distribution of measuring the listed wires, as a
    dense array indexed by the mixed-radix encoding of the outcome over
    those wires' dimensions. *)

val measure : Random.State.t -> t -> wires:int list -> int array * t
(** Projectively measure the listed wires: returns the outcome tuple
    and the collapsed, renormalised post-measurement state.  A symbolic
    state measures the {e full} register as one uniform coset draw
    (O(r^2) for [Z_2^200]), with a symbolic post-state, and demotes for
    partial measurement. *)

val measure_all : Random.State.t -> t -> int array
(** The outcome of measuring every wire, with no post-state, on every
    backend.  A dense state draws it straight off its amplitude planes
    and a symbolic state takes one subgroup draw; both give the same
    outcome and RNG consumption as {!measure} on all wires.  A sparse
    state draws one populated index off its segment.  Ticks
    [measurements] once. *)

val norm : t -> float (* hsp-lint: allow unused-export *)

val approx_equal : ?eps:float -> t -> t -> bool (* hsp-lint: allow unused-export *)
(** Amplitude-wise comparison; works across backends (used by the
    dense/sparse/symbolic equivalence test suite). *)
