(** Complex scalars for the quantum simulator.

    A thin layer over [Stdlib.Complex] adding the constants, root-of-
    unity tables and approximate comparisons state-vector simulation
    needs. *)

type t = Complex.t

val zero : t
val one : t
val re : float -> t
val make : float -> float -> t
val add : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val conj : t -> t
val scale : float -> t -> t
val norm2 : t -> float
(** Squared modulus. *)

val root_of_unity : int -> int -> t
(** [root_of_unity n k] is [exp(2 pi i k / n)] for [n >= 1]. *)

val approx_equal : ?eps:float -> t -> t -> bool
(** Componentwise comparison with tolerance (default [1e-9]). *)
