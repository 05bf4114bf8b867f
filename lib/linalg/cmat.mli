(** Dense complex matrices: the unitaries of the simulator. *)

type t = Cx.t array array
(** Row-major square or rectangular matrix. *)

val init : int -> int -> (int -> int -> Cx.t) -> t
val identity : int -> t (* hsp-lint: allow unused-export *)
val rows : t -> int
val cols : t -> int
val mul : t -> t -> t (* hsp-lint: allow unused-export *)
val apply : t -> Cvec.t -> Cvec.t (* hsp-lint: allow unused-export *)
val adjoint : t -> t

val planes : t -> float array * float array
(** Row-major split-plane copy [(re, im)]: element [(i, j)] of a
    [rows x cols] matrix lives at index [i * cols + j].  The dense
    backend precomputes this once per gate application. *)

val apply_planes :
  rows:int ->
  cols:int ->
  m_re:float array ->
  m_im:float array ->
  x_re:float array ->
  x_im:float array ->
  y_re:float array ->
  y_im:float array ->
  unit
(** [y = M x] on split planes, allocation-free: reads [x_re]/[x_im]
    (first [cols] entries), writes [y_re]/[y_im] (first [rows]
    entries).  The output planes must be distinct from the inputs.
    @raise Invalid_argument on plane dimension mismatch. *)

val kron : t -> t -> t (* hsp-lint: allow unused-export *)
(** Kronecker (tensor) product. *)

val approx_equal : ?eps:float -> t -> t -> bool (* hsp-lint: allow unused-export *)

val is_unitary : ?eps:float -> t -> bool
(** [m* m = I] within tolerance; false for non-square matrices. *)

val dft : int -> t
(** [dft n] is the unitary discrete Fourier transform of dimension [n]:
    [dft n].(j).(k) = exp(2 pi i j k / n) / sqrt n.  This is the QFT
    over the cyclic group [Z_n]. *)

val permutation : int -> (int -> int) -> t (* hsp-lint: allow unused-export *)
(** [permutation n pi] maps [|k>] to [|pi k>]; [pi] must be a bijection
    on [0..n-1] (checked). *)
