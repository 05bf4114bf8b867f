(** The wreath products [Z_2^k wr Z_2] of Rötteler–Beth [24].

    Elements are [(u, v, s)] with [u, v] in [Z_2^k] and [s] in [Z_2];
    the top [Z_2] swaps the two [Z_2^k] coordinates:

    [(u, v, s)(u', v', s') = (u + u'', v + v'', s + s')] where
    [(u'', v'')] is [(u', v')] if [s = 0] and [(v', u')] if [s = 1].

    The base subgroup [N = Z_2^k x Z_2^k] is an elementary Abelian
    normal 2-subgroup with [|G/N| = 2], so these groups sit in both the
    general and the cyclic-factor cases of Theorem 13. *)

type elt = { u : int array; v : int array; s : int }

val group : int -> elt Group.t
(** [group k] is [Z_2^k wr Z_2], of order [2^(2k+1)]. *)

val base_gens : int -> elt list
(** Generators of the base [N = Z_2^k x Z_2^k]. *)

val swap_elt : int -> elt
(** The top swap [(0, 0, 1)]. *)

val of_tuple : int -> int array -> elt (* hsp-lint: allow unused-export *)
(** Flat [2k+1] bit tuple [(u..., v..., s)]. *)
