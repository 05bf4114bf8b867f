(** [Race_check]: a concurrency-safety pass over the OCaml sources
    using [compiler-libs]' Parsetree, companion to {!Lint}.

    The simulator's concurrency story rests on two invariants that the
    type system cannot see: the {b determinism contract} of
    [Quantum.Parallel] (chunk geometry fixed by the workload alone,
    kernel closures write only chunk-local or per-chunk state — see
    [parallel.mli]) and the {b lock discipline} of [lib/service]
    (exception-safe unlock everywhere, heavy work built outside the
    lock and published under it).  This pass enforces both statically.

    Rules (names as written in allowlist comments):

    - [race-capture] — a closure passed to [Parallel.parallel_for],
      [map_chunks] or [run_chunked] whose body assigns a
      captured [ref] ([:=], [incr], [decr]) or a captured record's
      mutable field ([<-]).  Bindings introduced {e inside} the closure
      (its parameters, [let]s, [match] cases, [for] indices) are
      chunk-local and fine; array-element writes ([a.(i) <- v]) are the
      kernels' disjoint-index output contract and are not flagged.
      Cross-chunk accumulation must go through [Atomic], a per-chunk
      slot combined after the join, or [map_chunks]' ordered results.
    - [jobs-dependent-chunks] — a [~chunks:] argument expression that
      mentions [Parallel.jobs], [getenv]-style lookups, the literal
      ["HSP_JOBS"], or a name let-bound in the enclosing function to
      such an expression (followed through chains of [let]s).  Chunk counts must be a function of the workload
      geometry only, or chunk boundaries — and therefore ordered
      floating-point reductions — change with the machine's job count,
      breaking the bit-for-bit determinism contract.
    - [domain-unsafe-global] — a module-level [let] in [lib/quantum],
      [lib/core] or [lib/service] whose value allocates mutable state
      ([ref], [Hashtbl.create], [Queue.create], [Buffer.create], ...)
      that is neither [Atomic.t] nor guarded by a module-local mutex.
      Lambda bodies are skipped (their state is created per call).  A
      mutex-guarded table is suppressed with an allow comment naming
      the lock, e.g. [(* hsp-lint: allow domain-unsafe-global —
      guarded by qlock *)].
    - [unbalanced-lock] — [Mutex.lock m] not immediately followed by a
      [Fun.protect ~finally:(fun () -> Mutex.unlock m)] continuation,
      and not expressed as [Mutex.protect].  A raised exception leaves
      the executor or cache wedged; the two sanctioned shapes are the
      only ones this pass can prove exception-safe.
    - [blocking-under-lock] — a blocking call ([Unix.read]/[write]/
      [accept]/[sleepf]/..., [Thread.delay]/[join], [Protocol.*_frame],
      or a [Coset_state.prep]/[sampler*]-class heavy entry point) made
      lexically inside a region that holds a lock: the function
      argument of [Mutex.protect] / [Cache.locked] / [with_lock], or
      the protected continuation of a sanctioned lock/[Fun.protect]
      pair.  Only checked in [lib/service] ({!config.check_blocking}),
      whose cache was specifically designed to build entries outside
      the lock.

    A finding on line [L] is suppressed by the same allowlist comment
    syntax as {!Lint}: [(* hsp-lint: allow <rule> [<rule> ...] *)] (or
    [allow all]) on line [L] or [L-1]. *)

type rule =
  | Race_capture
  | Jobs_dependent_chunks
  | Domain_unsafe_global
  | Unbalanced_lock
  | Blocking_under_lock

type finding = { file : string; line : int; rule : rule; detail : string }

type config = {
  check_parallel : bool;
      (** enforce [race-capture] / [jobs-dependent-chunks] (kernel call
          sites only, so on everywhere) *)
  check_globals : bool;  (** enforce [domain-unsafe-global] *)
  check_locks : bool;  (** enforce [unbalanced-lock] *)
  check_blocking : bool;  (** enforce [blocking-under-lock] *)
}

val config_for_path : string -> config (* hsp-lint: allow unused-export *)
(** [check_globals] under [lib/quantum], [lib/core] and [lib/service];
    [check_blocking] under [lib/service]; the kernel rules and the lock
    rule everywhere. *)

(* hsp-lint: allow unused-export *)
val lint_source : config -> file:string -> string -> finding list
(** Parse and lint one compilation unit given as a string.  Findings
    are sorted by line.
    @raise Failure if the source does not parse. *)

val lint_file : ?config:config -> string -> finding list
(** Reads the file; [config] defaults to {!config_for_path}. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line: [rule] detail], matching {!Lint.pp_finding}. *)
