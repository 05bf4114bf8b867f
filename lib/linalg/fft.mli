(** The unitary discrete Fourier transform of any length, on unboxed
    split float planes.

    Every simulator backend reduces Abelian Fourier sampling to
    transforms over [Z_d] for arbitrary [d].  A {!plan} holds everything
    about one length that does not depend on the data — bit-reversal
    and twiddle tables, a root table, or Bluestein's chirp and its
    transformed kernel — so {!exec} runs with no allocation, no boxing
    and no trigonometry per fibre.  The convention is {!Cmat.dft}'s:
    positive exponent, [1/sqrt n] normalisation.

    Plans are immutable once built and safe to share across domains;
    each concurrent caller brings its own {!scratch}.  There is no plan
    cache: a caller that wants reuse keeps its plan. *)

type plan
(** The transform of one length [n]: radix-2 butterflies when [n] is a
    power of two, a direct O(n^2) sum over a root table for other
    [n <= 16], Bluestein's chirp-z convolution (two power-of-two FFTs
    of length [m >= 2n - 1]) otherwise. *)

type scratch
(** Work planes for one {!exec} at a time (empty for radix-2). *)

val plan : int -> plan
(** @raise Invalid_argument if the length is below 1. *)

val scratch : plan -> scratch

val exec : plan -> inverse:bool -> scratch -> float array -> float array -> unit
(** [exec p ~inverse s re im] replaces the first [n] entries of
    the planes [(re, im)] by their unitary DFT ([Cmat.dft n]), or by its
    adjoint when [inverse].  Entries past the plan's length are
    untouched.
    @raise Invalid_argument if either plane is shorter than the plan, or
    [s] was made for a plan needing less scratch. *)

val transform : ?inverse:bool -> Cx.t array -> unit
(** Boxed in-place adapter; the length must be a power of two.
    [transform v] applies [Cmat.dft n]; [~inverse:true] applies its
    adjoint. *)

val dft_any : ?inverse:bool -> Cx.t array -> unit
(** Boxed in-place adapter over a one-shot {!plan} of any length
    [>= 1]; semantics identical to [Cmat.apply (Cmat.dft n)]. *)

val is_pow2 : int -> bool
