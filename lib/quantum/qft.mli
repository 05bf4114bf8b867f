(** Quantum Fourier transform over finite Abelian groups.

    For [A = Z_{d_1} x ... x Z_{d_r}] represented as a register whose
    wire [i] has dimension [d_i], the QFT over [A] factors as the
    per-wire DFTs.  This covers every Fourier transform the paper
    needs: all its algorithms reduce to Fourier sampling over Abelian
    groups (the point of the paper is to avoid non-Abelian transforms). *)

val forward : ?plans:Linalg.Fft.plan array -> State.t -> wires:int list -> State.t
(** Apply the DFT of the appropriate dimension to each listed wire: one
    {!State.fourier} sweep.  [plans.(w)], when given, is the prebuilt
    plan of wire [w]'s dimension. *)

val backward : State.t -> wires:int list -> State.t (* hsp-lint: allow unused-export *)
(** Inverse QFT on each listed wire, as one {!State.fourier} sweep. *)

(* hsp-lint: allow unused-export *)
val character : dims:int array -> int array -> int array -> Linalg.Cx.t
(** [character ~dims y x] is the value at [x] of the character indexed
    by [y] of the group [Z_dims(0) x ...]:
    [prod_i exp(2 pi i x_i y_i / d_i)]. *)

val character_is_trivial_on : dims:int array -> int array -> int array -> bool
(** [character_is_trivial_on ~dims y h] tests [chi_y(h) = 1] exactly
    (integer arithmetic, no floats): each [y_i h_i] is reduced mod
    [d_i] first, and the pairing is summed mod [lcm dims].
    @raise Invalid_argument if [lcm dims] exceeds [2^61]. *)
