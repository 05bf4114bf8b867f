(** Persistent domain pool behind the dense backend's parallel kernels.

    The pool holds [jobs () - 1] worker domains (the orchestrating
    domain is the remaining participant), spawned lazily on the first
    parallel region, parked between regions, and resized when the job
    count changes.  With the default [jobs () = 1] no domain is ever
    spawned and every entry point degenerates to the plain serial loop.

    {b Determinism contract.}  Work is split into contiguous chunks
    whose boundaries depend only on the index range and the chunk
    count — never on the job count or on scheduling.  A kernel whose
    chunks write disjoint output indices is therefore bit-for-bit
    identical at every job count; ordered reductions get the same
    guarantee by fixing [~chunks] from the workload geometry (see
    {!reduction_chunks}) and combining per-chunk results in chunk order
    ({!map_chunks}).  The equivalence suite ([test_parallel.ml])
    enforces this against the [jobs = 1] run.

    The job count defaults to the [HSP_JOBS] environment variable
    (falling back to 1); [hsp_cli --jobs] overrides it via
    {!set_jobs}.  A malformed or out-of-range [HSP_JOBS] raises
    [Invalid_argument] on first use rather than silently running
    serial.

    {b Adversarial scheduler.}  {!set_sched}[ Shuffle] executes each
    region's chunks in a seeded-permuted order — everything keyed by chunk {e index}
    (output ranges, {!map_chunks} slots) is untouched, so
    under the contract above the results are still bit-for-bit
    identical, and any hidden dependence on execution order trips the
    digest gates.  The permutation is seeded by a per-region counter,
    never by wall-clock state, so a failing order is reproducible.
    [test_matrix.ml] runs the paper's workloads under jobs 1, 2 and 4
    (the last shuffled) and requires every cell to match the serial
    FIFO run bit for bit. *)

val max_jobs : int

val jobs : unit -> int (* hsp-lint: allow unused-export *)
(** The session-wide job count: {!set_jobs} if called, else [HSP_JOBS],
    else 1.
    @raise Invalid_argument on a malformed or out-of-range [HSP_JOBS]
    (not an integer, or outside [1 .. max_jobs]). *)

val set_jobs : int -> unit
(** @raise Invalid_argument outside [1 .. max_jobs]. *)

val parse_jobs : string -> int (* hsp-lint: allow unused-export *)
(** Validate an [HSP_JOBS]-style value ({!jobs} applies it to the
    environment variable).
    @raise Invalid_argument unless the trimmed string is an integer in
    [1 .. max_jobs]. *)

type sched = Fifo | Shuffle  (** chunk execution order within a region *)

val sched : unit -> sched (* hsp-lint: allow unused-export *)
(** The session-wide scheduler: {!set_sched} if called, else [Fifo]. *)

val set_sched : sched -> unit (* hsp-lint: allow unused-export *)

val parallel_for : ?chunks:int -> int -> int -> (int -> int -> unit) -> unit
(** [parallel_for lo hi body] runs [body clo chi] over contiguous
    chunks covering [\[lo, hi)].  [body] must touch only data indexed
    by its own range (plus read-only shared state); under that contract
    the result is independent of the job count.  [?chunks] pins the
    chunk count (clamped to the range length); the default is a small
    multiple of the job count, which is only safe for bodies whose
    output does not depend on chunk boundaries (elementwise kernels). *)

val map_chunks : chunks:int -> int -> int -> (int -> int -> 'a) -> 'a array
(** [map_chunks ~chunks lo hi body] runs [body clo chi] per chunk and
    returns the per-chunk results {e in chunk order}, for ordered
    (hence schedule-invariant) reductions.  Pass a [~chunks] that does
    not depend on the job count — see {!reduction_chunks}. *)

val reduction_chunks : slot_words:int -> int -> int
(** [reduction_chunks ~slot_words total] is a chunk count for reducing
    over [total] indices with a per-chunk partial buffer of
    [slot_words] words: fixed by the workload geometry alone (never the
    job count), capped at 64 and by a bound on total partial-buffer
    memory. *)

val chunk_bound : lo:int -> hi:int -> nchunks:int -> int -> int
(** [chunk_bound ~lo ~hi ~nchunks c] is the lower boundary of chunk [c]
    (so chunk [c] covers [\[chunk_bound c, chunk_bound (c+1))]) — the
    exact split {!parallel_for} and {!map_chunks} use.  Exposed so a
    caller that must revisit one chunk serially (e.g. the sparse
    backend's measurement scan) reproduces the same boundaries. *)
