(** Shor-style period finding, order finding and factoring.

    These discharge the "Abelian obstacle" oracles of Theorem 4 /
    Corollary 5 (order computation; factoring the orders).  The
    simulation is faithful to the standard algorithm: a register of
    dimension [Q = 2^t >= 2 * bound^2] is prepared in
    [sum_k |k>|f(k)>], the function register is measured (deferred
    measurement), the [Z_Q] Fourier transform is applied and the
    measured outcome is post-processed with continued fractions. *)

val period_finding :
  Random.State.t ->
  f:(int -> int) ->
  period_bound:int ->
  queries:Query.t ->
  max_rounds:int ->
  int option
(** Finds the exact period [r <= period_bound] of [f : Z -> tags]
    (assumed [f(a) = f(b)] iff [a = b mod r]).  Runs Fourier-sampling
    rounds, accumulating the lcm of the continued-fraction
    denominators, until the candidate verifies [f r = f 0] with minimal
    divisors, or gives up after [max_rounds]. *)

val find_order :
  Random.State.t -> pow:(int -> int) -> order_bound:int -> queries:Query.t -> int option
(** Order of a group element [x] presented by its power map
    [pow k = canonical tag of x^k] ([pow] must satisfy the periodicity
    contract above with [r] the order). *)

val factor : Random.State.t -> int -> (int * int) option
(** [factor rng n] returns a nontrivial factorisation [n = a * b]
    ([1 < a <= b]) of an odd composite [n] using quantum order finding,
    or [None] if the attempts budget is exhausted.  Even and prime
    inputs are handled classically (rejected with [Invalid_argument]
    for primes). *)
