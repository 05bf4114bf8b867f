(** Continued fractions.

    Shor's period-finding measurement returns an integer [c] close to a
    multiple of [Q/r]; the period [r] is recovered as the denominator of
    a convergent of [c/Q].  This module implements the expansion and the
    convergent enumeration used by that post-processing. *)

val expand : int -> int -> int list (* hsp-lint: allow unused-export *)
(** [expand p q] is the continued-fraction expansion [\[a0; a1; ...\]]
    of [p/q] for [q >= 1], with the convention that the expansion of 0
    is [\[0\]]. *)

val convergents : int -> int -> (int * int) list
(** [convergents p q] lists the convergents [(h, k)] (in lowest terms,
    [k >= 1]) of [p/q], in order of increasing denominator. *)
