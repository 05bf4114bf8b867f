(** Products of cyclic groups [Z_{d_1} x ... x Z_{d_r}] — the Abelian
    groups over which all of the paper's Fourier sampling happens.
    Elements are exponent tuples ([int array]s reduced mod the
    respective [d_i]). *)

type elt = int array

val product : int array -> elt Group.t
(** [product dims] is [Z_dims(0) x ... ], generated by the unit
    vectors. *)

val boolean_cube : int -> elt Group.t
(** [Z_2^n], Simon's group. *)
