open Groups

(** The Ettinger–Høyer dihedral algorithm [9] — the contrast baseline.

    For a hidden reflection subgroup [H = {1, s^d t}] of [D_n], the
    algorithm Fourier-samples coset states over [Z_n x Z_2]: the
    outcome [(y, b)] occurs with probability proportional to
    [cos^2(pi (d y / n + b / 2))], a noisy linear constraint on the
    slope [d].  [O(log n)] samples statistically determine [d], but
    the only known recovery is an exhaustive likelihood scan over all
    [n] candidates — time exponential in the input size [log n].
    This module reproduces that trade-off: logarithmic query counts,
    linear-in-[n] post-processing, measured separately. *)

type result = {
  slope : int;  (** the recovered reflection position [d] *)
  candidates_scanned : int;  (** post-processing work: [n] per scan *)
}

val solve : Random.State.t -> n:int -> Dihedral.elt Hiding.t -> result option
(** Recover the hidden reflection subgroup [{1, s^d t}] of [D_n];
    [None] if the verification never succeeds within the retry budget
    (e.g. the hidden subgroup is not of the assumed form). *)

