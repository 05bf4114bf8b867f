(** Complex vectors (quantum state amplitudes). *)

type t = Cx.t array

val make : int -> t
(** Zero vector of the given dimension. *)

val basis : int -> int -> t (* hsp-lint: allow unused-export *)
(** [basis dim k] is the computational basis vector [|k>]. *)

val dim : t -> int
val zero_norm_floor : float
(** Norms below this are treated as an (unnormalisable) zero vector by
    every normalise entry point — here and in the simulator backends.
    Far below any amplitude a simulation produces; it only guards
    against dividing by a true zero. *)

val approx_equal : ?eps:float -> t -> t -> bool

(** {2 Split-plane layout}

    A complex vector as two unboxed [float array] planes ([re], [im]).
    The dense simulator backend stores amplitudes this way (one flat
    double per component, no per-element boxing); these entry points
    convert to and from the boxed representation and do the in-place
    arithmetic the backend's kernels need. *)

val split : t -> float array * float array
(** [(re, im)] copies of the components. *)

val join : re:float array -> im:float array -> t
(** Inverse of {!split}.
    @raise Invalid_argument on plane length mismatch. *)

val norm2_planes : re:float array -> im:float array -> lo:int -> hi:int -> float
(** Squared 2-norm of components [lo .. hi-1] (a partial sum usable as
    one chunk of an ordered reduction). *)

val scale_planes : float -> re:float array -> im:float array -> lo:int -> hi:int -> unit
(** In-place real scaling of components [lo .. hi-1]. *)

val normalize_planes : re:float array -> im:float array -> unit
(** Normalise the planes in place (serial, whole range).
    @raise Invalid_argument on the zero vector or length mismatch. *)
