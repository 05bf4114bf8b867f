(** State-vector backend selection, the simulator's size caps, and the
    mixed-radix index arithmetic the backends share.

    The simulator core ({!State}) is a thin dispatcher over three
    representations of a register's joint state:

    - {!Backend_dense} — one contiguous complex array of dimension
      [prod dims], capped at {!Caps.dense_state} amplitudes.  The
      reference implementation, and the only one of amplitude-level
      operations: gates, basis maps, oracles, tensor products,
      marginals and partial measurement.
    - {!Backend_sparse} — a sorted segment (flat index/re/im arrays) of
      the nonzero amplitudes only, running just the Fourier-sampling
      pipeline: an index segment in ({!State.of_indices},
      {!State.of_coset}), per-wire DFTs ({!State.fourier}) and a
      full-register draw ({!State.measure_all}).  Each step costs time
      proportional to the support size, so registers far beyond
      {!Caps.dense_state} are simulable while the coset states and
      their Fourier images stay sparse.
    - {!Backend_symbolic} — no amplitudes at all: a state is a
      phase-decorated coset state [(subgroup HNF basis, coset
      representative, character)] rewritten in closed form under the
      Abelian DFT and measured by uniform subgroup sampling.  Nothing
      scales with the support or total dimension, so
      [Z_2^200]-shaped registers work on tuple indices.  An
      amplitude-level operation demotes a symbolic state to dense
      (under {!Caps.symbolic_materialise}).

    A [choice] picks the backend of a sampling route: explicitly via
    the [?backend] argument of the {!Coset_state} samplers, or for the
    session via {!set_default} (the [hsp_cli --backend] flag).  No
    choice is [None]; ["auto"] parses to it.  Two rules resolve an
    omitted backend, one per sampling route, and they are the only
    readers of {!default}: {!Coset_state.oracle_backend} (explicit,
    then the session default, then dense up to {!Caps.coset_dense}
    group elements and sparse beyond; [Symbolic] means sparse there)
    and {!Coset_state.planted_backend} (explicit, then the session
    default, then symbolic).  The state constructors read neither:
    {!State.of_indices} builds sparse and {!State.of_coset} symbolic
    when [?backend] is omitted, and the general constructors
    ({!State.create}, {!State.uniform}, ...) always build dense. *)

type choice = Dense | Sparse | Symbolic

val choice_of_string : string -> (choice option, string) result
(** Parses ["dense"], ["sparse"] and ["symbolic"] to that backend and
    ["auto"] to [None], no choice (case-insensitive); [Error] names
    the accepted spellings. *)

val choice_to_string : choice -> string

val default : unit -> choice option
(** The session-wide backend for a sampling route whose [?backend] is
    omitted: [None] until {!set_default} overrides it.  Read only by
    {!Coset_state.oracle_backend} and {!Coset_state.planted_backend}. *)

val set_default : choice option -> unit

(** Every size-cap constant in the simulator, in one place.  The caps
    bound different resources and so are deliberately different
    numbers; each names its consumers so the cross-references stay
    checkable. *)
module Caps : sig
  val dense_state : int
  (** [2^24].  Maximum total dimension the dense backend accepts: 16M
      amplitudes = 256 MB of complex doubles, the dense memory wall.
      Consumers: {!Backend_dense}, [State.amplitudes], the
      [hsp_cli solve-abelian] banner. *)

  val coset_dense : int
  (** [2^22].  Group-size cap of [Coset_state.sampler] /
      [Coset_state.sample_full] on the dense backend: those paths materialise O(|A|)
      amplitudes {e and} O(|A|) bucket tables, so they stop well under
      {!dense_state}.  Also the pivot of the oracle route's rule for
      an omitted backend ({!Coset_state.oracle_backend}). *)

  val coset_sparse : int
  (** [2^26].  Group-size cap of [Coset_state.sampler] on the sparse
      backend: the amplitudes stay O(|coset|), so the bound is only the flat
      bucket tables of the shared O(|A|) prep pass.  Also the most
      members [State.of_coset] enumerates on dense or sparse, the
      planted route of [Coset_state.sampler_with_subgroup]: its coset
      index segment is the same flat array.  Beyond it, only the
      symbolic [Coset_state.sampler_with_subgroup] runs, with no cap. *)

  val symbolic_materialise : int
  (** [2^20].  Largest subgroup the symbolic backend will enumerate:
      when demoting to the dense backend ([State] fallback for
      amplitude-level operations) and in [iter_nonzero].  Purely a
      simulator-side safety rail: the symbolic fast path (DFT rewrite
      + subgroup sampling) never materialises anything, and
      [State.of_coset] on dense or sparse is bounded by
      {!coset_sparse} instead.  A demoted state is a dense register,
      so it must also fit under {!dense_state}. *)
end

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
