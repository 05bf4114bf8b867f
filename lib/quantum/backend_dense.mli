(** Dense state-vector backend: one contiguous complex array of
    dimension [prod dims], capped at {!Backend.dense_cap}.

    This is the seed simulator, exact and cache-friendly; it remains the
    reference implementation that the sparse backend is validated
    against (see the backend-equivalence test suite).  Satisfies
    {!Backend.S}, plus dense-only extras ({!apply_wire}, {!fourier},
    {!approx_equal}, {!pp}) used by the {!State} dispatcher. *)

include Backend.S

val of_indices : int array -> int array -> t
(** Uniform superposition over the given {e encoded} basis indices
    (strictly increasing, in range) — the dense mirror of
    [Backend_sparse.of_indices].
    @raise Invalid_argument on an empty, unsorted or out-of-range
    index array. *)

val apply_wire : t -> wire:int -> Linalg.Cmat.t -> t

val fourier : ?plans:Linalg.Fft.plan array -> t -> wires:int list -> inverse:bool -> t
(** [apply_dft] on each listed wire in order, on one copy of the planes
    instead of one per wire: bit-identical to the per-wire fold.
    [plans.(w)], when given, is wire [w]'s plan. *)

val measure_all : Random.State.t -> t -> int array
(** The outcome of [measure ~wires:all], drawn straight off the
    amplitude planes: same outcome, same RNG consumption (one
    [Random.State.float]), same exceptions, but no probability array
    and no collapsed state. *)

val approx_equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
