(** Semidirect products [Z_2^n x| Z_m] with a cyclic top acting by an
    invertible GF(2) matrix — the abstract form of the paper's
    Section 6 family (elementary Abelian normal 2-subgroup with cyclic
    factor group).

    Elements are [(v, t)] with [v] in [Z_2^n], [t] in [Z_m], and

    [(v, t)(w, u) = (v + A^t w, t + u mod m)]

    where [A] is the action matrix; [A^m] must be the identity. *)

type elt = { v : int array; t : int }

val group : action:int array array -> m:int -> elt Group.t
(** [group ~action ~m]: [action] is an invertible [n x n] matrix over
    GF(2) with [action^m = I] (checked).  Order [2^n * m]. *)

val base_gens : n:int -> elt list
(** Generators of the normal subgroup [N = Z_2^n x {0}]. *)

val top_gen : n:int -> elt (* hsp-lint: allow unused-export *)
(** The generator [(0, 1)] of the cyclic factor. *)

val cyclic_action : int -> int array array
(** The cyclic-shift action matrix on [Z_2^n]: a convenient invertible
    matrix of order [n]. *)
