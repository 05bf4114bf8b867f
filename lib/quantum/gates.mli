(** Standard qubit gates as 2x2 / 4x4 unitaries, plus controlled
    constructions.  Used by the circuit layer and by tests that check
    the qudit QFT against its textbook qubit decomposition. *)

val h : Linalg.Cmat.t
(** Hadamard. *)

val x : Linalg.Cmat.t (* hsp-lint: allow unused-export *)
val z : Linalg.Cmat.t (* hsp-lint: allow unused-export *)

val rk : int -> Linalg.Cmat.t
(** [rk k] = diag(1, e^{2 pi i / 2^k}), the QFT rotation. *)

val controlled : Linalg.Cmat.t -> Linalg.Cmat.t
(** [controlled u] for a [d x d] unitary is the [2d x 2d] unitary
    applying [u] when the (most significant) control qubit is 1. *)

val swap : Linalg.Cmat.t
