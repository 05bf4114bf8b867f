(** Semidirect products [Z_2^n x| P] with a permutation group [P] on
    [n] points acting by coordinate permutation:

    [(v, s)(w, t) = (v + s(w), s t)].

    This is the most general form of the paper's Section 6 setting:
    [N = Z_2^n x {1}] is an elementary Abelian normal 2-subgroup and
    [G/N ~ P] can be any small permutation group — in particular
    non-cyclic, exercising Theorem 13's general (transversal-based)
    case beyond the wreath products.  [Z_2^k wr Z_2] is the special
    case [n = 2k], [P = <(0 k)(1 k+1)...>]. *)

type elt = { v : int array; s : Perm.elt }

val group : n:int -> top:Perm.elt list -> elt Group.t
(** [group ~n ~top]: the top generators must be permutations of degree
    [n]. *)

val base_gens : n:int -> elt list
(** Generators of [N = Z_2^n]. *)

val lift_perm : n:int -> Perm.elt -> elt (* hsp-lint: allow unused-export *)
(** [(0, sigma)]. *)
