open Groups

(** Order finding in black-box groups — the oracle (a) of Corollary 5.

    With unique encoding, Shor's period-finding applies directly to
    the power map [k -> x^k] (Theorem 6's prerequisite).  With a
    hidden normal subgroup [N] presented by a hiding function, the
    same machinery runs on [k -> f(x^k)] — the secondary encoding of
    [G/N] (Theorem 7) — and with [N] given by generators it runs on
    the canonical coset labels, our stand-in for Watrous's coset
    superpositions [|x^k N>] (Theorem 10). *)

exception Not_converged of { stage : string; attempts : int }
(** The probabilistic sampling loop exhausted its attempt budget
    without a verified answer.  This is the {e retryable} failure mode
    of every entry point below — a fresh RNG draw may well succeed, and
    long-running callers (the [hsp_served] service) surface it as a
    typed, retryable error reply instead of a connection-killing
    crash.  [stage] is ["period-finding"] or ["watrous-sampling"]. *)

val order :
  Random.State.t -> 'a Group.t -> 'a -> bound:int -> queries:Quantum.Query.t -> int
(** Order of [x] by simulated Shor period finding on the power map.
    [bound] is any upper bound on the order (e.g. [|G|] or an exponent
    bound); it sizes the Fourier register.
    @raise Not_converged if sampling does not converge (bad bound or
    unlucky draws; retryable). *)

(* hsp-lint: allow unused-export *)
val order_mod_hidden :
  Random.State.t -> 'a Group.t -> 'a Hiding.t -> 'a -> bound:int -> int
(** Order of [xN] in [G/N] where [N] is the subgroup hidden by [f]:
    period of [k -> f(x^k)].  Quantum queries are charged to the
    hiding function's counter. *)

val order_mod_generated :
  Random.State.t -> 'a Group.t -> 'a list -> 'a -> bound:int -> queries:Quantum.Query.t -> int
(** Order of [xN] in [G/N] where the normal subgroup [N] is given by
    generators: period of the coset-label map (Theorem 10's
    [k -> |x^k N>], with the coset superposition stood in for by a
    canonical label). *)

(* hsp-lint: allow unused-export *)
val order_mod_generated_watrous :
  Random.State.t -> 'a Group.t -> 'a list -> 'a -> queries:Quantum.Query.t -> int
(** Theorem 10 taken literally: the hiding function returns the
    actual coset-superposition state vectors [|x^k N>] (Watrous), and
    Lemma 9's state-valued Fourier sampling finds the period over
    [Z_m], [m] the order of [x] in [G] found by Shor.  Exponentially
    more simulation memory than {!order_mod_generated} (it
    materialises |G|-dimensional states); kept as the
    fidelity-checking implementation. *)
