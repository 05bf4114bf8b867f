(** Shor's discrete logarithm as an Abelian HSP (Theorem 4 hypothesis
    (b)).

    In [Z_p^*], with [g] of order [r] and [h = g^l], the function
    [f(a, b) = g^a h^b] on [Z_r x Z_r] hides the subgroup
    [<(l, -1)>]; Fourier sampling plus lattice post-processing
    recovers [l].  This discharges the discrete-log oracle the
    Beals–Babai toolbox assumes. *)

val discrete_log :
  Random.State.t -> p:int -> g:int -> h:int -> int option
(** The least [l >= 0] with [g^l = h mod p], or [None] if [h] is
    outside [<g>].  [p] must be prime. *)
