(** Split metacyclic groups [Z_n x|_k Z_m]: the cyclic top acts on the
    cyclic base by multiplication by [k], i.e.

    [(a, b)(a', b') = (a + k^b a' mod n, b + b' mod m)]

    with [gcd(k, n) = 1] and [k^m = 1 mod n].  Dihedral groups are the
    case [m = 2, k = n - 1]; Frobenius groups [Z_p x| Z_q] are the
    case [n = p] prime with [k] of order [q].  The base [<(1, 0)>] is
    a hidden-normal-subgroup instance for Theorem 8 in a solvable
    (indeed metabelian) group. *)

type elt = { a : int; b : int }

val group : n:int -> m:int -> k:int -> elt Group.t (* hsp-lint: allow unused-export *)
(** @raise Invalid_argument if [gcd(k, n) <> 1] or [k^m <> 1 mod n]. *)

val base_gen : elt
(** [(1, 0)], generating the normal cyclic base. *)

val top_gen : elt (* hsp-lint: allow unused-export *)
(** [(0, 1)]. *)

val frobenius : p:int -> q:int -> elt Group.t
(** The non-Abelian group [Z_p x| Z_q] for primes [q | p - 1]: picks a
    multiplier of order exactly [q] mod [p]. *)

val affine : p:int -> elt Group.t
(** [AGL(1, p) = Z_p x| Z_p^*]: all maps [x -> a x + b] over GF(p),
    realised as [Z_p x|_g Z_{p-1}] for a primitive root [g].  Its
    translation subgroup [<base_gen>] is the canonical hidden normal
    subgroup instance in a solvable group. *)
