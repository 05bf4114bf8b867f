(** Primality testing and integer factorisation.

    Shor's order-finding algorithm discharges the "Abelian obstacles"
    of the Beals–Babai toolbox; its classical post-processing (and the
    test suite's reference answers) need deterministic factorisation
    for the small moduli the simulator can hold. *)

val sieve : int -> int array (* hsp-lint: allow unused-export *)
(** [sieve n] is the ascending array of primes [<= n]. *)

val is_prime : int -> bool
(** Deterministic Miller–Rabin, valid for all [int] inputs (uses the
    known deterministic witness set for 64-bit integers). *)

val mulmod : int -> int -> int -> int
(** [mulmod a b m] is [a * b] reduced into [[0, m)], for any [a], [b]
    and [1 <= m <= 2^61], without overflow: the plain product for
    [m <= 2^31], Russian-peasant addition beyond. *)

val factorize : int -> (int * int) list
(** [factorize n] for [n >= 1] is the prime factorisation
    [(p1, e1); ...] with [p1 < p2 < ...] and [n = prod pi^ei].
    Trial division up to a bound, then Pollard rho for any remaining
    composite cofactor. [factorize 1 = \[\]]. *)

val prime_divisors : int -> int list
(** Distinct prime divisors, ascending. *)

val euler_phi : int -> int (* hsp-lint: allow unused-export *)
(** Euler totient via factorisation. *)
