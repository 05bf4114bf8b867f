(** Dicyclic (generalised quaternion) groups [Q_{4n}].

    [Q_{4n} = < a, b | a^{2n} = 1, b^2 = a^n, b a b^-1 = a^-1 >],
    of order [4n].  For [n = 2] this is the quaternion group [Q_8],
    which is extra-special.  The commutator subgroup is [<a^2>] of
    order [n], making the family a natural sweep for Theorem 11: the
    HSP cost grows with [|G'| = n] while [|G| = 4n]. *)

type elt = { j : int; e : int }
(** The element [a^j b^e] with [j] in [Z_2n], [e] in [{0,1}]. *)

val group : int -> elt Group.t
(** [group n] is [Q_{4n}]; requires [n >= 1]. *)

val central_involution : int -> elt
(** [a^n], the unique involution, generating the center for [n >= 2]. *)
