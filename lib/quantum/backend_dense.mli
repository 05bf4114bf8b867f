(** Dense state-vector backend: one contiguous complex array of
    dimension [prod dims], capped at {!Backend.Caps.dense_state}.

    This is the seed simulator, exact and cache-friendly, and the only
    implementation of amplitude-level operations: gates, basis maps,
    oracles, tensor products, marginals and partial measurement.  It
    is also the reference the sparse backend's Fourier pipeline is
    validated against (see the backend-equivalence test suite).

    @raise Invalid_argument from every constructor on a register
    beyond {!Backend.Caps.dense_state} amplitudes
    (["State: register too large to simulate"]). *)

type t

(** {2 Constructors} *)

val create : int array -> t
(** The all-zeros basis state. *)

val of_basis : int array -> int array -> t
val uniform : int array -> t

val of_amplitudes : int array -> Linalg.Cvec.t -> t
(** Adopts (a copy of) the vector, normalised. *)

val of_support : int array -> (int array * Linalg.Cx.t) list -> t
(** [of_support dims entries] sums the entries' amplitudes into their
    basis tuples, in list order, then normalises.
    @raise Invalid_argument on an empty or zero-norm support. *)

val of_indices : int array -> int array -> t
(** Uniform superposition over the given {e encoded} basis indices
    (strictly increasing, in range) — the dense mirror of
    [Backend_sparse.of_indices].
    @raise Invalid_argument on an empty, unsorted or out-of-range
    index array. *)

(** {2 Access} *)

val dims : t -> int array
val num_wires : t -> int

val support_size : t -> int
(** Number of nonzero amplitudes. *)

val amplitudes : t -> Linalg.Cvec.t
val amp_at : t -> int -> Linalg.Cx.t

val iter_nonzero : t -> (int -> Linalg.Cx.t -> unit) -> unit
(** In increasing index order. *)

(** {2 Operations} *)

val tensor : t -> t -> t

val apply_wires : t -> wires:int list -> Linalg.Cmat.t -> t
(** The unitary on the listed wires, most significant first; ticks
    [gate_fibres] once per fibre (the rest-index count). *)

val fourier : ?plans:Linalg.Fft.plan array -> t -> wires:int list -> inverse:bool -> t
(** The DFT on each listed wire in order, in place on one fresh copy of
    the planes: bit-identical to the fold of single-wire sweeps.
    [plans.(w)], when given, is a prebuilt {!Linalg.Fft.plan} of wire
    [w]'s dimension, so a caller transforming many states of one shape
    builds it once; omitted, each wire builds its own. *)

val apply_basis_map : t -> (int array -> int array) -> t
(** @raise Invalid_argument unless the map is a bijection of the
    register (checked in full). *)

val apply_oracle_add : t -> in_wires:int list -> out_wire:int -> f:(int array -> int) -> t
val probabilities : t -> wires:int list -> float array

val measure : Random.State.t -> t -> wires:int list -> int array * t
(** The outcome on the listed wires and the collapsed, renormalised
    state. *)

val measure_all : Random.State.t -> t -> int array
(** The outcome of [measure ~wires:all], drawn straight off the
    amplitude planes: same outcome, same RNG consumption (one
    [Random.State.float]), same exceptions, but no probability array
    and no collapsed state. *)

val norm : t -> float
val approx_equal : ?eps:float -> t -> t -> bool
