(** Extra-special p-groups (Corollary 12).

    A group [G] is extra-special if [G' = Z(G)] has order [p] and
    [G/G'] is elementary Abelian.  We implement the Heisenberg group
    [H_p(m)] of order [p^(2m+1)]: upper unitriangular matrices encoded
    as tuples [(a, b, c)] in [Z_p^m x Z_p^m x Z_p] with

    [(a, b, c) * (a', b', c') = (a + a', b + b', c + c' + <a, b'>)].

    Its commutator subgroup and center are both the [c]-axis, of order
    [p] — the paper's poly(input + p) HSP instance. *)

type elt = { a : int array; b : int array; c : int }

val group : p:int -> m:int -> elt Group.t
(** [H_p(m)], order [p^(2m+1)]; generators: the unit vectors of the
    [a] and [b] blocks. *)

val center_gen : p:int -> m:int -> elt
(** The generator [(0, 0, 1)] of [G' = Z(G)]. *)

val of_tuple : p:int -> m:int -> int array -> elt (* hsp-lint: allow unused-export *)
(** Flat [2m+1] exponent tuple [(a..., b..., c)]. *)

val to_tuple : elt -> int array (* hsp-lint: allow unused-export *)
