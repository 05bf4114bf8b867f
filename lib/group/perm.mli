(** Permutation groups on [{0, ..., n-1}].

    A permutation is an [int array] [p] with [p.(i)] the image of [i].
    These are the groups for which the paper's Theorem 8 promises
    hidden *normal* subgroup recovery in polynomial time (nu(G) is
    polynomial for permutation groups). *)

type elt = int array

val equal : elt -> elt -> bool
(** Pointwise equality — use this (not polymorphic [=]) on permutations. *)

val identity : int -> elt
val compose : elt -> elt -> elt
(** [compose p q] acts as [q] first, then [p] (so that
    [(compose p q).(i) = p.(q.(i))], matching function composition). *)

val inverse : elt -> elt
val of_cycles : int -> int list list -> elt
(** [of_cycles n cycles] builds a permutation of degree [n] from
    disjoint cycles given as index lists. *)

val to_cycles : elt -> int list list
(** Non-trivial cycles, each starting at its least point, sorted. *)

val is_valid : elt -> bool

val symmetric : int -> elt Group.t
(** S_n, generated by a transposition and an n-cycle. *)

val alternating : int -> elt Group.t
(** A_n, generated by 3-cycles. *)
