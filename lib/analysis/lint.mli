(** [hsp_lint]'s rules: one source pass over the OCaml sources using
    [compiler-libs]' Parsetree, and the [unused-export] rule, which
    {!Unused_export} checks on dune's typed trees.

    {2 Value semantics}

    The paper's groups are black boxes: elements are handled only
    through the group's own operations, so structural equality on
    them is a bug waiting for a non-canonical representative.

    - [poly-compare] — unqualified [compare], [Stdlib.compare] or
      [Hashtbl.hash], or an applied [=]/[<>] between an array element
      ([a.(i)]) and a plain identifier, field or element.  Scope:
      [lib/group], [lib/core], [lib/quantum], [lib/linalg],
      [lib/analysis] and [lib/service], whose values are group
      elements, words, states and dimension vectors: polymorphic
      comparison silently diverges from the modules' own
      [equal]/[compare] on non-canonical representatives, and walks
      whole arrays where a typed scalar compare was intended.
    - [poly-eq] — [( = )], [( <> )], [( == )] or [( != )] passed as a
      function value (e.g. [~equal:( = )]).  Same scope as
      [poly-compare].
    - [poly-membership] — structural-equality membership: [List.mem],
      [List.memq], [List.assoc]/[assoc_opt]/[mem_assoc]/[remove_assoc],
      [Array.mem]/[memq] applied to a non-literal key, or a search
      combinator ([List.exists], [List.find(_opt)], [List.for_all],
      [List.filter], [Array.exists], ...) whose predicate is an
      equality section [(( = ) x)] or a lambda whose body is a single
      [=]/[<>] with no literal operand.  The containers in scope hold
      group elements, [int array] tuples and oracle tags — use the
      element type's equality ([List.exists (Int.equal k) xs], a typed
      [equal] inside the predicate) instead.  Literal keys
      ([List.mem "all" rules]) and literal-guard lambdas
      ([fun d -> d <> 2]) stay quiet.  Same scope as [poly-compare].
    - [struct-eq] — an applied [=]/[<>] whose two operands project the
      same shape of data: the same record field on both sides
      ([a.dims = b.dims]) or the same accessor applied on both sides
      ([dims a = dims b]).  Matching labels makes the comparison almost
      certainly structural; use the element type's [equal] (e.g.
      [Backend.dims_equal]) instead.  Known int-returning stdlib
      accessors ([Array.length] etc.) are excluded.  Same scope as
      [poly-compare].
    - [float-eq] — [=]/[<>]/[==]/[!=] applied with a float literal
      operand, anywhere: exact float comparison is almost always a
      tolerance bug in a numerical simulator.
    - [obj-magic] — any use of [Obj.magic], anywhere.
    - [print-stdout] — [Printf.printf], [Format.printf] and the
      [print_*] family, anywhere but [bin/], [bench/], [test/] and
      [examples/]: libraries must log through [Logs] or return values,
      not write to the simulator's stdout.

    {2 Concurrency}

    Two invariants the type system cannot see: the {b determinism
    contract} of [Quantum.Parallel] (chunk geometry fixed by the
    workload alone, kernel closures write only chunk-local or
    per-chunk state — see [parallel.mli]) and the {b lock discipline}
    of [lib/service] (exception-safe unlock everywhere, heavy work
    built outside the lock and published under it).

    - [race-capture] — a closure passed to [Parallel.parallel_for],
      [map_chunks] or [run_chunked] whose body assigns a captured
      [ref] ([:=], [incr], [decr]) or a captured record's mutable field
      ([<-]), anywhere.  Bindings introduced {e inside} the closure
      (its parameters, [let]s, [match] cases, [for] indices) are
      chunk-local and fine; array-element writes ([a.(i) <- v]) are
      the kernels' disjoint-index output contract and are not flagged.
      Cross-chunk accumulation must go through [Atomic], a per-chunk
      slot combined after the join, or [map_chunks]' ordered results.
    - [jobs-dependent-chunks] — a [~chunks:] argument expression that
      mentions [Parallel.jobs], [getenv]-style lookups, the literal
      ["HSP_JOBS"], or a name let-bound in the enclosing function to
      such an expression (followed through chains of [let]s),
      anywhere.  Chunk counts must be a function of the workload
      geometry only, or chunk boundaries — and therefore ordered
      floating-point reductions — change with the machine's job count.
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
      and not expressed as [Mutex.protect], anywhere.  A raised
      exception leaves the executor or cache wedged; the two
      sanctioned shapes are the only ones this pass can prove
      exception-safe.
    - [blocking-under-lock] — a blocking call ([Unix.read]/[write]/
      [accept]/[sleepf]/..., [Thread.delay]/[join], [Protocol.*_frame],
      or a [Coset_state.prep]/[sampler*]-class heavy entry point) made
      lexically inside a region that holds a lock: the function
      argument of [Mutex.protect] / [Cache.locked] / [with_lock], or
      the protected continuation of a sanctioned lock/[Fun.protect]
      pair.  Scope: [lib/service], whose cache was specifically
      designed to build entries outside the lock.

    {2 Exports}

    - [unused-export] — a [val] in a [lib/**/*.mli] that no other unit
      in [lib], [bin], [bench] or [examples] references; references
      from [test/] do not count.  The allowlist comment goes in the
      [.mli], and an allowlisted [val] that no other unit references at
      all, [test/] included, is a finding too.

    A rule's scope is matched against the path a source is linted
    under, anywhere in that path.  A finding on line [L] is suppressed
    by an allowlist comment [(* hsp-lint: allow <rule> [<rule> ...] *)]
    (or [allow all]) on line [L] or [L-1]. *)

type rule =
  | Poly_compare
  | Poly_eq
  | Poly_membership
  | Struct_eq
  | Float_eq
  | Obj_magic
  | Print_stdout
  | Race_capture
  | Jobs_dependent_chunks
  | Domain_unsafe_global
  | Unbalanced_lock
  | Blocking_under_lock
  | Unused_export

type finding = { file : string; line : int; rule : rule; detail : string }

(* hsp-lint: allow unused-export *)
val lint_source : file:string -> string -> finding list
(** Parse one compilation unit given as a string and apply every
    Parsetree rule whose scope covers [file].  Findings come in line
    order, the value-semantics rules' before the concurrency rules'.
    @raise Failure if the source does not parse. *)

val lint_file : string -> finding list
(** [lint_source] on the file's contents, under its own path. *)

val allowed : string -> line:int -> rule -> bool
(** [allowed src ~line rule]: whether an allowlist comment in [src]
    suppresses [rule] on [line].  Applied to [src] alone, it scans the
    source once. *)

val files_with : string -> string -> string list
(** [files_with suffix path]: [path] itself if it ends in [suffix],
    else every such file under the directory [path], in sorted
    order. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line: [rule] detail]. *)
