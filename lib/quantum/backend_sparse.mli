(** Sparse state-vector backend: the nonzero amplitudes on a sorted
    segment — three parallel flat arrays (basis indices, strictly
    increasing, plus unboxed re/im float planes), adopted from an
    already-sorted index array by {!of_indices}.  No boxed
    [Complex.t], no hashtable and no sort anywhere in the hot loops.

    The backend runs only the Fourier-sampling pipeline that
    every theorem of the paper reduces to: an index segment in
    ({!of_indices}), the per-wire DFT ({!apply_dft}) and a
    full-register draw out ({!measure_all}).  Time and memory scale
    with the support size, not with [prod dims], so registers beyond
    {!Backend.Caps.dense_state} are simulable: coset states [|xH>]
    have support [|H|], and their Fourier transforms are supported on
    the [|G|/|H|]-point annihilator.  Gates, oracles, tensor products,
    marginals and partial measurement are the dense backend's alone.

    The kernels run on the {!Parallel} domain pool under the same
    determinism contract as the dense backend — bit-for-bit identical
    results at every job count.  The DFT gathers fibres block by block
    off the sorted segment and emits them in index order; the norm and
    the measurement scan are index-ordered chunk reductions.

    Amplitudes with modulus at most {!prune_eps} are dropped after each
    DFT, so destructive interference actually shrinks the segment.
    The equivalence test suite checks the DFT against
    {!Backend_dense} amplitude-by-amplitude and against a sort-based
    reference kernel bit for bit.  Work statistics (populated fibre
    counts, peak support, pruned amplitudes) are recorded in the
    {!Metrics} ledger. *)

type t

val of_indices : ?planes:float array * float array -> int array -> int array -> t
(** [of_indices dims idxs] is the uniform superposition over the given
    {e encoded} basis indices, which must be strictly increasing and in
    range — the segment is adopted directly with no sort and no
    hashing, so building a coset state from a pre-bucketed index list
    costs O(|coset|).  [~planes:(re, im)] gives the amplitudes instead,
    parallel to [idxs], adopted as they are (not normalised).
    @raise Invalid_argument on an empty, unsorted or out-of-range
    index array, or planes of another length. *)

val dims : t -> int array
val num_wires : t -> int
val support_size : t -> int
val amplitudes : t -> Linalg.Cvec.t
val amp_at : t -> int -> Linalg.Cx.t

val iter_nonzero : t -> (int -> Linalg.Cx.t -> unit) -> unit
(** Visits entries in increasing basis-index order. *)

val apply_dft : ?plan:Linalg.Fft.plan -> t -> wire:int -> inverse:bool -> t
(** Transforms the populated fibres of the wire block by block without
    sorting (see the header).  [?plan] is a prebuilt
    {!Linalg.Fft.plan} of the wire's dimension; omitted, the call
    builds its own.
    @raise Invalid_argument if the plan's length is not the wire's
    dimension. *)

val measure_all : Random.State.t -> t -> int array
(** One Born-rule draw of the whole register: the digits of a
    populated basis index chosen with probability [|amp|^2] (one
    [Random.State.float]).  No post-state is built.
    @raise Invalid_argument on an all-zero segment. *)

val norm : t -> float

val prune_eps : float (* hsp-lint: allow unused-export *)
(** The pruning threshold, [1e-12]: an amplitude of modulus at most
    this is dropped. *)

val approx_equal : ?eps:float -> t -> t -> bool
