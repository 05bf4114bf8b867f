(** State-vector backend selection and the layered capability
    signatures the backends implement.

    The simulator core ({!State}) is a thin dispatcher over three
    interchangeable representations of a register's joint state:

    - {!Backend_dense} — one contiguous complex array of dimension
      [prod dims].  Exact, cache-friendly, and the reference
      implementation; capped at {!Caps.dense_state} amplitudes.
    - {!Backend_sparse} — a sorted segment (flat index/re/im arrays) of
      the nonzero amplitudes only.  Every operation costs time
      proportional to the support size (times the local fibre
      dimension), not the total dimension, so registers far beyond
      {!Caps.dense_state} are simulable whenever the states that
      actually arise (coset states [|xH>], subgroup states [|H>],
      their partial Fourier transforms) stay sparse.
    - {!Backend_symbolic} — no amplitudes at all: a state is a
      phase-decorated coset state [(subgroup HNF basis, coset
      representative, character)] rewritten in closed form under the
      Abelian DFT and measured by uniform subgroup sampling.  Nothing
      scales with the support or total dimension, so
      [Z_2^200]-shaped registers work on tuple indices.

    The capability split ({!CORE} vs {!AMPLITUDES}) captures what the
    three have in common and where they part: every backend can build
    basis/uniform states, tensor, Fourier-transform and measure
    ({!CORE}); only the amplitude-array backends can adopt arbitrary
    amplitude vectors, index amplitudes by encoded integers, or apply
    arbitrary unitaries and oracles ({!AMPLITUDES}).  [State] statically
    checks dense/sparse/htbl against {!S} = both layers, and the
    symbolic backend against {!CORE} alone; symbolic states demote to
    the sparse backend (under {!Caps.symbolic_materialise}) when an
    amplitude-level operation is requested.

    The backend is chosen per state at creation time: explicitly via the
    [?backend] argument of {!State.create} and friends, globally via
    {!set_default} (the [hsp_cli --backend] flag) or the [HSP_BACKEND]
    environment variable ([dense], [sparse], [symbolic] or [auto]), and
    automatically ([Auto]) by total dimension: dense when the register
    fits under {!Caps.dense_state}, sparse beyond it.  [Auto] never
    resolves to symbolic — exact symbolic simulation needs the coset
    structure the caller supplies ({!State.of_coset}), so it is always
    an explicit opt-in. *)

type choice = Dense | Sparse | Symbolic | Auto

val choice_of_string : string -> choice option
(** Parses ["dense"], ["sparse"], ["symbolic"], ["auto"]
    (case-insensitive). *)

val choice_to_string : choice -> string

val default : unit -> choice
(** The session-wide default used when [?backend] is omitted.  Initially
    read from the [HSP_BACKEND] environment variable (falling back to
    [Auto]); {!set_default} overrides it. *)

val set_default : choice -> unit

(** Every size-cap constant in the simulator, in one place.  The caps
    bound different resources and so are deliberately different
    numbers; each names its consumers so the cross-references stay
    checkable. *)
module Caps : sig
  val dense_state : int
  (** [2^24].  Maximum total dimension the dense backend accepts: 16M
      amplitudes = 256 MB of complex doubles, the dense memory wall and
      the pivot of [Auto] resolution ({!resolve}).  Consumers:
      {!Backend_dense}, {!State.max_total_dim}, [State.amplitudes]. *)

  val coset_dense : int
  (** [2^22].  Group-size cap of [Coset_state.sampler] /
      [Coset_state.sample_full] on the dense backend
      ({!Coset_state.max_group_size}): those paths materialise O(|A|)
      amplitudes {e and} O(|A|) bucket tables, so they stop well under
      {!dense_state}. *)

  val coset_sparse : int
  (** [2^26].  Group-size cap of [Coset_state.sampler] on the sparse
      and symbolic backends ({!Coset_state.max_group_size_sparse}): the
      amplitudes stay O(|coset|), so the bound is only the flat
      bucket tables of the shared O(|A|) prep pass.  Beyond it, use
      [Coset_state.sampler_with_support] or the symbolic
      [Coset_state.sampler_with_subgroup], which have no cap. *)

  val symbolic_materialise : int
  (** [2^20].  Largest support the symbolic backend will materialise
      when demoting to the sparse backend ([State] fallback for
      amplitude-level operations, [iter_nonzero], coset recognition in
      [State.of_indices]).  Purely a simulator-side safety rail: the
      symbolic fast path (DFT rewrite + subgroup sampling) never
      materialises anything. *)
end

val dense_cap : int
(** Alias of {!Caps.dense_state} (the historical name). *)

val resolve : ?backend:choice -> total:int -> unit -> choice
(** [resolve ?backend ~total ()] turns a possibly-[Auto],
    possibly-omitted choice into a concrete [Dense], [Sparse] or
    [Symbolic]: an omitted backend falls back to {!default}, and [Auto]
    picks [Dense] iff [total <= Caps.dense_state] (never
    [Symbolic]). *)

(** {2 Shared mixed-radix index arithmetic}

    The amplitude backends index basis states by the mixed-radix
    encoding of the wire-value tuple, wire 0 most significant. *)

val total_of : int array -> int
(** Product of the dimensions.
    @raise Invalid_argument if any dimension is [< 1] or the product
    overflows the OCaml integer range.  (No cap check: those are the
    backends' own constraints.) *)

val total_of_opt : int array -> int option
(** [total_of_opt dims] is the product of the dimensions, or [None] if
    it overflows — the overflow-tolerant form used on paths that must
    work for [Z_2^200]-shaped registers.
    @raise Invalid_argument if any dimension is [< 1]. *)

val encode : int array -> int array -> int
(** [encode dims x] is the mixed-radix index of the basis tuple [x]. *)

val decode : int array -> int -> int array
(** Inverse of {!encode}. *)

val dims_equal : int array -> int array -> bool
(** Typed elementwise equality of dimension vectors (no polymorphic
    structural compare). *)

val strides : int array -> int array
(** [strides dims].(i) is the index increment of wire [i]:
    the product of [dims.(j)] for [j > i]. *)

val sample_discrete : Random.State.t -> float array -> int
(** Draw an index distributed according to the (near-)probability
    vector; mass deficits from floating-point error fall on the last
    index with nonzero probability (never on a zero-probability
    outcome).
    @raise Invalid_argument on an empty or all-zero vector. *)

(** {2 Capability signatures} *)

(** What {e every} backend provides: representation-agnostic state
    construction, tensoring, the Abelian DFT, and measurement.  The
    symbolic backend satisfies exactly this layer (its [measure]
    handles full-register measurement natively and raises otherwise —
    [State] demotes for the rest). *)
module type CORE = sig
  type t

  val create : int array -> t
  val of_basis : int array -> int array -> t
  val uniform : int array -> t
  val dims : t -> int array
  val num_wires : t -> int

  val support_size : t -> int
  (** Number of nonzero amplitudes (clamped to [max_int] when the
      support is only representable symbolically). *)

  val tensor : t -> t -> t
  val apply_dft : t -> wire:int -> inverse:bool -> t
  val measure : Random.State.t -> t -> wires:int list -> int array * t
  val norm : t -> float
end

(** The amplitude-array extension: encoded-integer indexing into
    explicit amplitudes, plus the operations that inherently touch
    per-amplitude data (arbitrary unitaries, basis maps, classical
    oracles, marginal distributions).  Provided by {!Backend_dense},
    {!Backend_sparse} and {!Backend_htbl}; {e not} by
    {!Backend_symbolic}. *)
module type AMPLITUDES = sig
  type t

  val of_amplitudes : int array -> Linalg.Cvec.t -> t
  val of_support : int array -> (int array * Linalg.Cx.t) list -> t
  val total_dim : t -> int
  val amplitudes : t -> Linalg.Cvec.t
  val amp_at : t -> int -> Linalg.Cx.t
  val iter_nonzero : t -> (int -> Linalg.Cx.t -> unit) -> unit
  val apply_wires : t -> wires:int list -> Linalg.Cmat.t -> t
  val apply_basis_map : t -> (int array -> int array) -> t
  val apply_oracle_add : t -> in_wires:int list -> out_wire:int -> f:(int array -> int) -> t
  val probabilities : t -> wires:int list -> float array
end

(** Both layers: the full amplitude-backend contract.  The equivalence
    test suite runs random circuits through the implementations and
    compares amplitudes. *)
module type S = sig
  include CORE
  include AMPLITUDES with type t := t
end
