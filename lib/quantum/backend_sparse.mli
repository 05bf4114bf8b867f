(** Sparse state-vector backend: the nonzero amplitudes on a sorted
    segment — three parallel flat arrays (basis indices, strictly
    increasing, plus unboxed re/im float planes).  A segment is built
    from sorted input: {!of_indices} adopts a sorted index array,
    {!of_amplitudes} scans a vector in index order, and {!of_support}
    sorts its entry list once.  No boxed [Complex.t] and no hashtable
    anywhere in the hot loops.

    Time and memory scale with the support size (times the local fibre
    dimension for gate application), not with [prod dims], so registers
    beyond {!Backend.dense_cap} are simulable whenever the computation
    keeps the state sparse — which is exactly the shape of the paper's
    workloads: coset states [|xH>] have support [|H|], and their group
    Fourier transforms are supported on the [|G|/|H|]-point annihilator.

    The kernels run on the {!Parallel} domain pool under the same
    determinism contract as the dense backend — bit-for-bit identical
    results at every job count.  The DFT gathers fibres block by
    block off the sorted segment and emits them in index order, with no
    sort; gates and relabelling emit
    per-chunk output runs concatenated in chunk order and restore
    sortedness with {!Parallel.sort_perm} under total orders; norm²,
    probabilities and measurement are index-ordered chunk reductions
    (the old hashtable backend summed floats in iteration order, which
    was not schedule-invariant).

    Amplitudes with modulus at most {!prune_eps} are dropped after each
    unitary, so destructive interference actually shrinks the segment.

    The operations implement {!Backend.S}; the equivalence test suite checks
    them against {!Backend_dense} amplitude-by-amplitude on random
    circuits.  Work statistics (populated fibre counts, peak
    support, pruned amplitudes) are recorded in the {!Metrics}
    ledger. *)

type t

val create : int array -> t
val of_basis : int array -> int array -> t
val of_amplitudes : int array -> Linalg.Cvec.t -> t
val of_support : int array -> (int array * Linalg.Cx.t) list -> t
(** [of_support dims entries] encodes the tuples, sorts them once by
    (index, list position) and sums duplicates left to right in list
    order, then normalises and prunes.
    @raise Invalid_argument on an empty or zero-norm support. *)

val of_indices : int array -> int array -> t
(** [of_indices dims idxs] is the uniform superposition over the given
    {e encoded} basis indices, which must be strictly increasing and in
    range — the segment is adopted directly with no sort and no
    hashing, so building a coset state from a pre-bucketed
    index list costs O(|coset|).
    @raise Invalid_argument on an empty, unsorted or out-of-range
    index array. *)

val uniform : int array -> t
val dims : t -> int array
val num_wires : t -> int
val total_dim : t -> int
val support_size : t -> int
val amplitudes : t -> Linalg.Cvec.t
val amp_at : t -> int -> Linalg.Cx.t

val iter_nonzero : t -> (int -> Linalg.Cx.t -> unit) -> unit
(** Visits entries in increasing basis-index order. *)

val tensor : t -> t -> t

val apply_wires : t -> wires:int list -> Linalg.Cmat.t -> t
val apply_dft : ?plan:Linalg.Fft.plan -> t -> wire:int -> inverse:bool -> t
(** Transforms the populated fibres of the wire block by block without
    sorting (see the header); [?plan] as in {!Backend.AMPLITUDES}.
    @raise Invalid_argument if the plan's length is not the wire's
    dimension. *)

val apply_basis_map : t -> (int array -> int array) -> t
val apply_oracle_add : t -> in_wires:int list -> out_wire:int -> f:(int array -> int) -> t
val probabilities : t -> wires:int list -> float array
val measure : Random.State.t -> t -> wires:int list -> int array * t
val norm : t -> float

val prune_eps : float
(** The pruning threshold, [1e-12]: an amplitude of modulus at most
    this is dropped. *)

val approx_equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Prints the nonzero entries in index order (intended for small
    supports). *)
