(** Abelian Fourier sampling over coset states.

    This is the quantum core of every algorithm in the paper: prepare
    [sum_x |x>|f(x)>] over an Abelian group [A = Z_{d_1} x ... x Z_{d_r}],
    Fourier-transform the group register and measure.  The outcome is a
    uniformly random character of [A] that is trivial on the hidden
    subgroup [ker/period of f].

    Every sampler runs the same round — one query tick, a coset state
    built by the route's draw (phase ["sample-prep"]), the Fourier
    sweep ({!Qft.forward}, phase ["fourier"]), one full measurement
    ({!State.measure_all}, phase ["measure"]) and one ["coset-round"]
    trace event carrying [coset_log2], [fourier_support] and
    [outcome].  Two routes build the coset state:

    - {!sampler} / {!sampler_of_prep} — the oracle route.  It measures
      the function register {e first} (deferred-measurement principle:
      measuring the two registers in either order yields the same joint
      distribution), so it only ever materialises one coset state
      instead of the [|A| * #values] tensor.  The oracle is expanded
      classically {e once} per prep — one O(|A|) pass that buckets
      the group into cosets (ledger: [sampler_preps]) — after which
      every sample costs O(|coset|) construction off its pre-sorted
      bucket (ledger: [coset_visits]) plus the Fourier/measure work.
      Capped at {!Backend.Caps.coset_dense} (2^22) on the dense backend, where
      amplitudes are materialised in full, and {!Backend.Caps.coset_sparse}
      (2^26) on the sparse one, where only the bucket tables are
      O(|A|).  Its states are index segments, so it runs on dense or
      sparse only; {!oracle_backend} is its one backend rule.
    - {!sampler_with_subgroup} / {!sampler_of_subgroup} — the planted
      route.  The caller supplies the hidden subgroup as a {e generator
      list}; the symbolic backend ({!Backend_symbolic}) then runs the
      whole round — coset state, full Fourier sweep, measurement — in
      closed form, O(r^2) per sample with no cap of any kind, so groups
      of order 2^100 and far beyond sample in microseconds.  Explicit
      dense/sparse backends enumerate the coset instead
      ({!State.of_coset}, at most {!Backend.Caps.coset_sparse} members, no
      O(|A|) pass), which simulates groups far beyond the oracle
      route's caps when cosets and their Fourier supports are small,
      and serves as the differential oracle for the symbolic
      distribution (the bench E13 chi-squared gate).

    {!sample_full} is the reference implementation on the full tensor
    product, used by tests to validate {!sampler}; it runs the dense
    backend's gates, oracle and partial measurement, O(|A|) throughout,
    capped at {!Backend.Caps.coset_dense}.

    Each call costs one oracle query: the oracle is evaluated once in
    superposition.  The classical expansion of that superposition by
    the simulator is *not* charged to the algorithm.

    The samplers of both routes take an optional [?backend], and each
    route resolves it with its one rule: {!oracle_backend} and
    {!planted_backend}.  They are the only readers of the session
    default ({!Backend.default}). *)

val oracle_backend : ?backend:Backend.choice -> total:int -> unit -> Backend.choice
(** The backend the oracle route ({!prep}, {!sampler}, and the
    [hsp_served] amplitude route) builds its states on, for a group of
    order [total].  The explicit [?backend] wins, then the session
    default ({!Backend.default}); with neither, [Dense] iff
    [total <= ]{!Backend.Caps.coset_dense} (2^22), else [Sparse], so no choice
    never picks a backend whose cap then rejects the group.  [Dense]
    and [Sparse] are taken as given, and [Symbolic] means [Sparse] (an
    oracle's buckets carry no subgroup structure; pass the subgroup to
    {!sampler_with_subgroup} to sample symbolically).  Caps are not
    checked here; {!prep} checks them. *)

val planted_backend : ?backend:Backend.choice -> unit -> Backend.choice
(** The backend the planted route ({!sampler_with_subgroup},
    {!sampler_of_subgroup}) builds its states on: the explicit
    [?backend], then the session default ({!Backend.default}), then
    [Symbolic] — the caller handing over subgroup structure is the
    opt-in to the amplitude-free backend. *)

val sampler :
  ?backend:Backend.choice ->
  dims:int array ->
  f:(int array -> int) ->
  queries:Query.t ->
  unit ->
  Random.State.t -> int array
(** One round of Fourier sampling per call; returns the measured
    character index [y] (an element of [A] read as a character via
    {!Qft.character}).  [f] must be constant on the cosets of some
    subgroup [H <= A] and distinct across cosets; the result is then
    uniform on the annihilator [H^perp].  [f] must not retain its
    argument: the tuple is borrowed for the call ({!prep}).  The
    (deterministic) oracle is evaluated over the group once, on the
    first round, and its coset buckets are reused: every round costs
    one quantum query and O(|coset|) construction.  Equivalent to
    [sampler_of_prep (prep ?backend ~dims ~f ()) ~queries ()]. *)

(** {2 First-class sampler prep}

    The expensive artifact behind {!sampler} — the O(|A|) oracle
    expansion into CSR coset buckets — as a value that outlives any one
    sampler.  A long-running caller (the [hsp_served] service layer)
    caches preps keyed by oracle fingerprint and attaches a fresh
    query counter per request: the O(|A|) pass is then paid once per
    {e oracle}, not once per request, and the ledger's [sampler_preps]
    counts distinct oracles. *)

type prep
(** Reusable coset-bucket tables for one (dims, oracle) pair, plus the
    backend {!oracle_backend} resolved.  Cheap to construct ({!prep} validates sizes and
    resolves the backend eagerly, but delays the O(|A|) expansion until
    the first sample or {!prep_force}); safe to share across samplers
    and threads once forced. *)

val prep :
  ?backend:Backend.choice ->
  dims:int array ->
  f:(int array -> int) ->
  unit ->
  prep
(** Build the prep for [f] over [A = Z_{d_1} x ... x Z_{d_r}].  The
    bucketing pass calls [f] once per element in index order, on one
    tuple it mutates between calls, so [f] must not retain its
    argument (copy it to keep it).  The backend is {!oracle_backend}'s;
    size caps are enforced here ({!Backend.Caps.coset_dense} dense,
    {!Backend.Caps.coset_sparse} sparse); the bucketing pass runs
    lazily, charged to the ["sample-prep"] phase and the
    [sampler_preps] ledger counter exactly once. *)

val prep_force : prep -> unit
(** Force the O(|A|) bucketing pass now (e.g. before sharing the prep
    across service worker threads, so the lazy cell is settled).  On
    the amplitude backends this also builds the prep's Fourier plans,
    one per distinct wire dimension, which every sampler of the prep
    then reuses. *)

val prep_backend : prep -> Backend.choice (* hsp-lint: allow unused-export *)
(** The resolved backend: [Dense] or [Sparse]. *)

val prep_buckets : prep -> int array * int array (* hsp-lint: allow unused-export *)
(** [(starts, members)], copies of the CSR bucket tables: coset [c]
    holds the encoded indices [members.(starts.(c)) .. members.(starts.(c+1) - 1)],
    increasing; cosets are numbered in order of their first element.
    Forces the tables.  For tests. *)

val prep_bytes : prep -> int
(** Heap footprint in bytes — the unit of the service cache's byte
    budget: 4 bytes per group element for the int32 bucket members,
    one word per coset for the bucket starts, the Fourier plans of an
    amplitude-backend prep (one per distinct wire dimension), plus a
    small fixed overhead (held within 10% of [Obj.reachable_words] by
    the test suite).  Does not force the tables: an unforced prep
    reports its post-expansion size as if it had a single coset and no
    plans. *)

val sampler_of_prep :
  prep -> queries:Query.t -> unit -> Random.State.t -> int array
(** A sampler drawing from an existing prep: identical distribution
    and per-round accounting to {!sampler} (one quantum query tick on
    [queries], [coset_visits] per round), but the O(|A|) pass is shared
    with every other sampler made from the same prep. *)

val sampler_with_subgroup :
  ?backend:Backend.choice ->
  dims:int array ->
  subgroup:int array list ->
  queries:Query.t ->
  unit ->
  Random.State.t -> int array
(** Like {!sampler}, but the simulator is given the hidden subgroup as
    a generator list instead of an oracle to expand: one round builds
    [|x0 + H>] symbolically from a uniform representative,
    Fourier-transforms it by the closed-form rewrite and measures by
    uniform annihilator sampling — O(r^2) per round for
    [A = Z_{d_1} x ... x Z_{d_r}] of arbitrary order.  The subgroup is
    canonicalised once per sampler and its annihilator solve is
    memoised, so rounds contain no normal-form work (ledger:
    [symbolic_solves] stays at 2 per oracle).  {!planted_backend}
    resolves the backend, symbolic when none is chosen;
    [Dense]/[Sparse] enumerate the coset (at most
    {!Backend.Caps.coset_sparse} members; ledger: [coset_visits]) and
    run the amplitude pipeline, with the same outcomes and RNG draws as
    any other enumeration of that coset.  Unless the backend is
    symbolic, the sampler builds one Fourier plan per distinct wire
    dimension when it is made, and every round reuses them.  Query
    accounting is identical to {!sampler}: one quantum query per
    round. *)

val sampler_of_subgroup :
  ?backend:Backend.choice ->
  sub:Backend_symbolic.Subgroup.t ->
  queries:Query.t ->
  unit ->
  Random.State.t -> int array
(** {!sampler_with_subgroup} over an {e already-canonicalised}
    subgroup: the caller (typically the service cache) holds the HNF
    basis and its memoised annihilator solve, so constructing a sampler
    here performs no normal-form work at all.  Dims are taken from the
    subgroup; backend semantics are as in {!sampler_with_subgroup}. *)

(* hsp-lint: allow unused-export *)
val sample_full :
  Random.State.t ->
  dims:int array ->
  f:(int array -> int) ->
  queries:Query.t ->
  unit ->
  int array
(** Same distribution as {!sampler}, computed by building the full
    [A x range(f)] register, applying the oracle unitary, Fourier
    transforming and measuring.  Exponentially more memory; only for
    small [A].  The value-canonicalisation pass evaluates [f] once per
    group element classically; that work is recorded in the ledger's
    [classical_evals] counter (the algorithm itself is still charged
    exactly one quantum query). *)

val sampler_state_valued :
  dims:int array ->
  f:(int array -> Linalg.Cvec.t) ->
  queries:Query.t ->
  unit ->
  Random.State.t ->
  int array
(** Lemma 9 of the paper: the hiding function returns a *quantum
    state* [|f(g)>] (a unit vector), constant on cosets of the hidden
    subgroup and orthogonal across cosets, instead of a classical
    tag.  The Fourier-sampling outcome distribution is identical to
    the tag case: measuring the state register projects onto one
    coset.  [f] must not retain its argument, as in {!prep}.  Vectors
    are bucketed by exact-up-to-epsilon equality (cosets are promised
    either equal or orthogonal), keyed by support signature so each
    evaluation costs one hash probe rather than a scan over all cosets
    seen; the memo is mutex-guarded and safe under concurrent
    draws. *)

val annihilator_gens : Numtheory.Zmatrix.hnf -> int array list
(** [annihilator_gens y] recovers generators of
    [H = { x : chi_y(x) = 1 for all y in Y }] from a prepared basis of
    the subgroup [Y] the sampled characters span — the classical
    post-processing of Fourier sampling.  The generators are the
    nonzero rows of {!Numtheory.Zmatrix.hnf_dual}: a canonical
    generating set, reduced mod the dims, so equal subgroups give
    equal lists. *)

val annihilator_subgroup : dims:int array -> int array list -> int array list
(** [annihilator_subgroup ~dims ys] is {!annihilator_gens} of the
    subgroup the samples [ys] generate
    ({!Numtheory.Zmatrix.hnf_of_gens}). *)
