(** Elementary integer arithmetic used throughout the HSP library.

    All functions operate on OCaml native [int] (63-bit on 64-bit
    platforms), which comfortably covers every group order the
    state-vector simulator can hold.  Functions raise
    [Invalid_argument] on out-of-domain inputs rather than returning
    garbage. *)

val gcd : int -> int -> int
(** [gcd a b] is the non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val egcd : int -> int -> int * int * int
(** [egcd a b] is [(g, x, y)] with [g = gcd a b] and [a*x + b*y = g]. *)

val lcm : int -> int -> int
(** Least common multiple; [lcm 0 _ = 0]. *)

val pow : int -> int -> int
(** [pow b e] is [b^e] for [e >= 0] by binary exponentiation (no
    overflow check). *)

val powmod : int -> int -> int -> int
(** [powmod b e m] is [b^e mod m] for [e >= 0], [m >= 1]; the result is
    in [\[0, m)]. *)

val invmod : int -> int -> int
(** [invmod a m] is the inverse of [a] modulo [m >= 1].
    @raise Invalid_argument if [gcd a m <> 1]. *)

val emod : int -> int -> int
(** Euclidean remainder: [emod a m] lies in [\[0, m)] for [m >= 1],
    regardless of the sign of [a]. *)

val crt : (int * int) list -> int * int (* hsp-lint: allow unused-export *)
(** [crt \[(r1, m1); (r2, m2); ...\]] solves the simultaneous
    congruences [x = ri mod mi], returning [(x, m)] where [m] is the
    lcm of the moduli and [x] in [\[0, m)] is the unique solution.
    Moduli need not be coprime.
    @raise Not_found if the system is inconsistent. *)

val ilog2 : int -> int
(** [ilog2 n] is the floor of log2 for [n >= 1]. *)

val multiplicative_order : int -> int -> int
(** [multiplicative_order a m] is the least [k >= 1] with
    [a^k = 1 mod m].
    @raise Invalid_argument if [gcd a m <> 1]. *)
