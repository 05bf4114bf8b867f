(** Abelian Fourier sampling over coset states.

    This is the quantum core of every algorithm in the paper: prepare
    [sum_x |x>|f(x)>] over an Abelian group [A = Z_{d_1} x ... x Z_{d_r}],
    Fourier-transform the group register and measure.  The outcome is a
    uniformly random character of [A] that is trivial on the hidden
    subgroup [ker/period of f].

    Four implementations are provided:

    - {!sample} / {!sampler} — the production fast path.  It measures
      the function register {e first} (deferred-measurement principle:
      measuring the two registers in either order yields the same joint
      distribution), so it only ever materialises one coset state
      instead of the [|A| * #values] tensor.  The oracle is expanded
      classically {e once} per sampler — one O(|A|) pass that buckets
      the group into cosets (ledger: [sampler_preps]) — after which
      every sample costs O(|coset|) construction off its pre-sorted
      bucket (ledger: [coset_visits]) plus the Fourier/measure work.
      Capped at {!max_group_size} (2^22) on the dense backend, where
      amplitudes are materialised in full, and {!max_group_size_sparse}
      (2^26) on the sparse one, where only the bucket tables are
      O(|A|).
    - {!sampler_with_support} — the beyond-the-cap path.  The caller
      supplies the coset of a point directly (the simulator's planted
      instance knows the hidden subgroup), so one round costs
      O(|coset| log |coset|) state construction on the sparse backend
      and no O(|A|) pass at all; groups far beyond
      {!max_group_size_sparse} become simulable when cosets and their
      Fourier supports are small.
    - {!sampler_with_subgroup} — the cryptographic-scale path.  The
      caller supplies the hidden subgroup as a {e generator list}; the
      symbolic backend ({!Backend_symbolic}) then runs the whole
      round — coset state, full Fourier sweep, measurement — in closed
      form, O(r^2) per sample with no cap of any kind, so groups of
      order 2^100 and far beyond sample in microseconds.  Explicit
      dense/sparse backends enumerate the coset instead and serve as
      differential oracles for the symbolic distribution (the bench E13
      chi-squared gate).
    - {!sample_full} — the reference implementation on the full tensor
      product, used by tests to validate {!sample}; dense O(|A|)
      throughout, capped at {!max_group_size}.

    Each call costs one oracle query: the oracle is evaluated once in
    superposition.  The classical expansion of that superposition by
    the simulator is *not* charged to the algorithm.

    Every entry point takes an optional [?backend] routed to the
    {!State} constructors; omitted, the session default
    ({!Backend.default}) applies. *)

val max_group_size : int
(** Group-size cap of {!sampler} / {!sample_full} on the dense backend:
    these paths materialise O(|A|) amplitudes.  Alias of
    {!Backend.Caps.coset_dense} (2^22). *)

val max_group_size_sparse : int
(** Group-size cap of {!sampler} on the sparse and symbolic backends:
    the amplitudes stay O(|coset|), so the bound is only the flat
    bucket tables of the shared prep pass.  Alias of
    {!Backend.Caps.coset_sparse} (2^26). *)

val sample :
  Random.State.t -> dims:int array -> f:(int array -> int) -> queries:Query.t -> int array
(** One round of Fourier sampling; returns the measured character
    index [y] (an element of [A] read as a character via
    {!Qft.character}).  [f] must be constant on the cosets of some
    subgroup [H <= A] and distinct across cosets; the result is then
    uniform on the annihilator [H^perp]. *)

val sampler :
  ?backend:Backend.choice ->
  dims:int array ->
  f:(int array -> int) ->
  queries:Query.t ->
  unit ->
  Random.State.t -> int array
(** Factory form of {!sample} that evaluates the (deterministic)
    oracle over the group once, buckets the group into cosets, and
    reuses the buckets across samples — same distribution and query
    accounting, with every round after the first pass costing
    O(|coset|) instead of O(|A|).  Equivalent to
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
    resolved backend.  Cheap to construct ({!prep} validates sizes and
    resolves the backend eagerly, but delays the O(|A|) expansion until
    the first sample or {!prep_force}); safe to share across samplers
    and threads once forced. *)

val prep :
  ?backend:Backend.choice ->
  dims:int array ->
  f:(int array -> int) ->
  unit ->
  prep
(** Build the prep for [f] over [A = Z_{d_1} x ... x Z_{d_r}].  Size
    caps are enforced here ({!max_group_size} dense,
    {!max_group_size_sparse} sparse/symbolic); the bucketing pass runs
    lazily, charged to the ["sample-prep"] phase and the
    [sampler_preps] ledger counter exactly once. *)

val prep_force : prep -> unit
(** Force the O(|A|) bucketing pass now (e.g. before sharing the prep
    across service worker threads, so the lazy cell is settled). *)

val prep_dims : prep -> int array
(** The register dimensions the prep was built for (a copy). *)

val prep_backend : prep -> Backend.choice
(** The resolved amplitude backend (never [Auto]). *)

val prep_cosets : prep -> int
(** Number of distinct cosets (oracle values) found; forces the
    tables. *)

val prep_bytes : prep -> int
(** Heap footprint in bytes — the unit of the service cache's byte
    budget: 4 bytes per group element for the int32 bucket members,
    one word per coset for the bucket starts, plus a small fixed
    overhead (held within 10% of [Obj.reachable_words] by the test
    suite).  Does not force the tables: an unforced prep reports its
    post-expansion size as if it had a single coset. *)

val sampler_of_prep :
  prep -> queries:Query.t -> unit -> Random.State.t -> int array
(** A sampler drawing from an existing prep: identical distribution
    and per-round accounting to {!sampler} (one quantum query tick on
    [queries], [coset_visits] per round), but the O(|A|) pass is shared
    with every other sampler made from the same prep. *)

val sampler_with_support :
  ?backend:Backend.choice ->
  dims:int array ->
  coset:(int array -> int array list) ->
  queries:Query.t ->
  unit ->
  Random.State.t -> int array
(** Like {!sampler}, but the simulator is given the coset structure
    instead of discovering it by exhaustive oracle expansion:
    [coset x] must return the distinct members of [xH].  One round
    draws a uniform [x], encodes and sorts the members, and hands the
    index segment to the backend whole ({!State.of_indices} — sparse
    unless overridden).  No group-size cap; this is the entry point
    that lifts instances whose total dimension exceeds even
    {!max_group_size_sparse}.  Query accounting is identical to
    {!sampler}: one quantum query per round. *)

val sample_with_support :
  Random.State.t ->
  ?backend:Backend.choice ->
  dims:int array ->
  coset:(int array -> int array list) ->
  queries:Query.t ->
  unit ->
  int array
(** One-shot form of {!sampler_with_support}. *)

val sampler_with_subgroup :
  ?backend:Backend.choice ->
  dims:int array ->
  subgroup:int array list ->
  queries:Query.t ->
  unit ->
  Random.State.t -> int array
(** Like {!sampler_with_support}, but the simulator is given the hidden
    subgroup as a generator list and never enumerates anything: one
    round builds [|x0 + H>] symbolically from a uniform representative,
    Fourier-transforms it by the closed-form rewrite and measures by
    uniform annihilator sampling — O(r^2) per round for
    [A = Z_{d_1} x ... x Z_{d_r}] of arbitrary order.  The subgroup is
    canonicalised once per sampler and its annihilator solve is
    memoised, so rounds contain no normal-form work (ledger:
    [symbolic_solves] stays at 2 per oracle).  An omitted/[Auto]
    backend means symbolic here (supplying subgroup structure is the
    opt-in); explicit [Dense]/[Sparse] enumerate the coset, subject to
    {!Backend.Caps.symbolic_materialise}, as differential oracles.
    Query accounting is identical to {!sampler}: one quantum query per
    round. *)

val sample_with_subgroup :
  Random.State.t ->
  ?backend:Backend.choice ->
  dims:int array ->
  subgroup:int array list ->
  queries:Query.t ->
  unit ->
  int array
(** One-shot form of {!sampler_with_subgroup}. *)

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

val sample_full :
  Random.State.t ->
  ?backend:Backend.choice ->
  dims:int array ->
  f:(int array -> int) ->
  queries:Query.t ->
  unit ->
  int array
(** Same distribution as {!sample}, computed by building the full
    [A x range(f)] register, applying the oracle unitary, Fourier
    transforming and measuring.  Exponentially more memory; only for
    small [A].  The value-canonicalisation pass evaluates [f] once per
    group element classically; that work is recorded in the ledger's
    [classical_evals] counter (the algorithm itself is still charged
    exactly one quantum query). *)

val sampler_state_valued :
  ?backend:Backend.choice ->
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
    coset.  Vectors are bucketed by exact-up-to-epsilon equality
    (cosets are promised either equal or orthogonal), keyed by support
    signature so each evaluation costs one hash probe rather than a
    scan over all cosets seen; the memo is mutex-guarded and safe under
    concurrent draws. *)

val annihilator_subgroup : dims:int array -> int array list -> int array list
(** [annihilator_subgroup ~dims ys] recovers generators of
    [H = { x : chi_y(x) = 1 for all sampled y }] — the classical
    post-processing of Fourier sampling.  Exact integer computation via
    Smith normal form. *)
