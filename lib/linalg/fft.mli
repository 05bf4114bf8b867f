(** The unitary discrete Fourier transform of any length, on unboxed
    split float planes.

    Every simulator backend reduces Abelian Fourier sampling to
    transforms over [Z_d] for arbitrary [d].  A {!plan} holds everything
    about one length that does not depend on the data — bit-reversal
    and twiddle tables, a root table, or Bluestein's chirp and its
    transformed kernel — so {!exec} runs with no allocation, no boxing
    and no trigonometry per fibre.  The convention is {!Cmat.dft}'s:
    positive exponent, [1/sqrt n] normalisation.

    One {!exec} transforms [lanes] interleaved fibres in place: entry
    [k] of lane [l] sits at [off + k * stride + l].  A wire of stride
    [s] in a dense register is a run of blocks of [s] interleaved
    fibres, so the dense backend transforms a whole wire with one call
    per (block, lane range) and no gather; a sparse fibre is one lane
    at stride 1.

    Plans are immutable once built and safe to share across domains.
    A {!scratch} is not: use one per concurrent caller.  There is no
    plan cache: a caller that wants reuse keeps its plan (the coset
    samplers keep one per wire dimension with their prep). *)

type plan
(** The transform of one length [n]: straight-line butterflies for
    [n <= 5], radix-2 stages when [n] is a larger power of two (lanes
    innermost), a direct O(n^2) sum over a root table for other
    [n <= 16], Bluestein's chirp-z convolution (two power-of-two FFTs
    of length [m >= 2n - 1]) otherwise.  The last two run one lane at a
    time through the scratch. *)

type scratch
(** Work planes for one {!exec} at a time (empty for [n <= 5] and
    radix-2). *)

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

val exec :
  plan ->
  inverse:bool ->
  scratch ->
  off:int ->
  stride:int ->
  lanes:int ->
  float array ->
  float array ->
  unit
(** [exec p ~inverse s ~off ~stride ~lanes re im] replaces, for each
    lane [l < lanes], the [n] entries [off + k * stride + l]
    ([k < n]) of the planes [(re, im)] by their unitary DFT
    ([Cmat.dft n]), or by its adjoint when [inverse].  No other entry
    is touched.  Each lane gets the same bits whatever [lanes] it is
    batched with, so splitting a wire into lane ranges never changes a
    result.  One fibre at the start of the planes is
    [~off:0 ~stride:1 ~lanes:1].
    @raise Invalid_argument (before any entry is read) if [lanes < 1],
    [stride < lanes] (lanes would overlap), [off < 0], a lane runs past
    the end of either plane, or [s] was made for a plan needing less
    scratch. *)
