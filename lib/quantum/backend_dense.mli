(** Dense state-vector backend: one contiguous complex array of
    dimension [prod dims], capped at {!Backend.dense_cap}.

    This is the seed simulator, exact and cache-friendly; it remains the
    reference implementation that the sparse backend is validated
    against (see the backend-equivalence test suite).  Satisfies
    {!Backend.S}, plus dense-only extras ({!apply_wire}, {!approx_equal},
    {!pp}) used by the {!State} dispatcher. *)

include Backend.S

val of_indices : int array -> int array -> t
(** Uniform superposition over the given {e encoded} basis indices
    (strictly increasing, in range) — the dense mirror of
    [Backend_sparse.of_indices].
    @raise Invalid_argument on an empty, unsorted or out-of-range
    index array. *)

val apply_wire : t -> wire:int -> Linalg.Cmat.t -> t

val measure_all : Random.State.t -> t -> int array
(** The outcome of [measure ~wires:all], drawn straight off the
    amplitude planes: same outcome, same RNG consumption (one
    [Random.State.float]), same exceptions, but no probability array
    and no collapsed state. *)

val run_plan : Circuit_plan.t -> t -> t
(** Execute a fused circuit plan in place over Bigarray staging planes
    (one copy in, one out; see {!Circuit_plan.run_planes}).  The input
    state is untouched.
    @raise Invalid_argument if the state is not a register of
    [plan.num_qubits] qubits. *)

val approx_equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
