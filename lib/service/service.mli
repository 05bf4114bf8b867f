(** The [hsp_served] engine: request execution over a shared artifact
    cache, with per-request cost accounting.

    {b Serial executor.}  All quantum work runs on one executor thread,
    which takes jobs one at a time in arrival order; connection threads
    enqueue a job and block.  That serialisation is what makes the
    per-request {!Quantum.Metrics} delta exact (the ledger is global).

    {b Cache.}  Artifacts are the expensive halves of the two sampler
    families: CSR coset buckets ({!Quantum.Coset_state.prep}) for
    dense/sparse instances, canonicalised HNF subgroups with memoised
    annihilator solves ({!Quantum.Backend_symbolic.Subgroup.t}) for the
    symbolic route.  Keys are digests of the canonical instance
    serialisation plus the resolved route.  The cache is the one place
    preps are shared: on a cold oracle the first request pays the
    O(|A|) prep and every later one hits, so the ledger's
    [sampler_preps] counts {e distinct oracles}, not requests.

    {b Errors.}  Nothing escapes as an exception: solver failures are
    classified by {!Runner.classify_failure} into typed replies —
    [retryable] (convergence), [rejected] (bad request), [crashed]
    (bug) — and invalid instances are [rejected] before any quantum
    work. *)

type t

val create : ?cache_entries:int -> ?cache_bytes:int -> ?seed:int -> unit -> t
(** Engine with an artifact cache of the given budgets (defaults: 64
    entries, 256 MiB) and a deterministic base RNG.  Call {!start} (or
    {!Server.run}) before submitting. *)

val start : t -> unit
(** Start the executor thread (idempotent). *)

val stop : t -> unit
(** Run every job queued so far, then stop and join the executor.
    Subsequent {!submit}s are rejected. *)

val submit : t -> Protocol.envelope -> Jsonv.t
(** Execute one request, blocking until its reply.  Thread-safe: calls
    from many threads queue and run one at a time. *)

val cache_stats : t -> Cache.stats

val pending : t -> int (* hsp-lint: allow unused-export *)
(** Jobs currently queued and not yet taken by the executor.  Tests
    use this to queue a known set of requests: submit from N threads
    {e before} {!start}, wait for [pending] to reach N, then start. *)

(** {2 Exposed for tests and the E14 bench} *)

type route = Sym | Amp of Quantum.Backend.choice

val route : Protocol.instance -> (route, string) result (* hsp-lint: allow unused-export *)
(** Resolve the execution route: an explicit backend wins ([Symbolic]
    is the planted route, [Dense]/[Sparse] the oracle route as given).
    Omitted ([None]): the oracle route while the total dimension is at
    most {!Quantum.Backend.Caps.coset_sparse}, on the backend
    {!Quantum.Coset_state.oracle_backend} resolves, so [Amp] is never
    a backend whose cap rejects the group; symbolic beyond it or when
    the total dimension overflows.  [Error] when an explicit amplitude
    backend cannot form the register at all. *)

val fingerprint : Protocol.instance -> route -> string (* hsp-lint: allow unused-export *)
(** Cache key: hex digest over route + canonical dims/moduli. *)
