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
    cache: a caller that wants reuse keeps its plan (the coset
    samplers keep one per wire dimension with their prep). *)

type plan
(** The transform of one length [n]: radix-2 butterflies when [n] is a
    power of two, a direct O(n^2) sum over a root table for other
    [n <= 16], Bluestein's chirp-z convolution (two power-of-two FFTs
    of length [m >= 2n - 1]) otherwise. *)

type scratch
(** Work planes for one {!exec} at a time (empty for radix-2). *)

val plan : int -> plan
(** @raise Invalid_argument if the length is below 1. *)

val length : plan -> int
(** The transform length [n] the plan was built for. *)

val plan_or_build : plan option -> int -> plan
(** [plan_or_build p n] is [p] when given, else a fresh [plan n].
    @raise Invalid_argument if [p]'s length is not [n]. *)

val plan_bytes : plan -> int
(** Heap footprint of the plan's tables in bytes, headers included. *)

val scratch : plan -> scratch

val exec : plan -> inverse:bool -> scratch -> float array -> float array -> unit
(** [exec p ~inverse s re im] replaces the first [n] entries of
    the planes [(re, im)] by their unitary DFT ([Cmat.dft n]), or by its
    adjoint when [inverse].  Entries past the plan's length are
    untouched.
    @raise Invalid_argument if either plane is shorter than the plan, or
    [s] was made for a plan needing less scratch. *)
