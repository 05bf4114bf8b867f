(** Cost-ledger observability for the simulator.

    The paper's theorems are complexity claims, so the reproduction
    lives or dies on trustworthy cost accounting: wall clock and oracle
    queries alone cannot show {e where} an algorithm spends its gates
    and support.  This module keeps one global ledger: a table of
    atomic integers indexed by two variants, {!counter} and {!phase}.

    - {e per-call counters} — gate ({!State.apply_wires}, one per gate
      of a {!Circuit.run}) and DFT (one per listed wire of
      {!State.fourier}) applications, basis-map and oracle ops,
      measurements, states created.  Ticked by the {!State} dispatcher,
      so dense and sparse runs of the same sampling pipeline report
      identical values.
    - {e work/allocation statistics} — fibres actually transformed per
      gate/DFT, peak sparse support, amplitudes dropped by the sparse
      pruning epsilon, and the largest dense amplitude array allocated.
      Recorded inside the backends; these are exactly where the two
      representations differ.
    - {e sampler and symbolic counters} — oracle prep passes, coset
      members visited per round, classical evaluations outside a
      query, and the symbolic backend's rewrites, draws, normal-form
      solves and demotions.
    - {e per-phase timers} — accumulated wall-clock nanoseconds and
      call counts per {!phase} ("sample-prep", "fourier", "measure",
      "classical"), wrapped around the samplers and the solvers'
      classical post-processing.

    {!tick}, {!add}, {!raise_to} and {!phase} are the only writers;
    {!reset}, {!snapshot}, {!counters} and {!pp} iterate the whole
    table: a new counter is a constructor, a slot, a name and its
    snapshot field, and every reader lists it with no further code.

    The ledger is global and reset per experiment ({!reset}; done by
    [Runner.run] and the CLI).  Counter updates are unconditional — a
    handful of integer increments per {e operation}, not per amplitude —
    so the overhead is unobservable next to the state-vector work.
    Every cell is an [Atomic.t], so ticks and phase charges are safe
    from any domain or thread (the dense backend runs its kernels on
    the {!Parallel} pool; the service times phases on its executor
    while request threads snapshot); peaks are raised with a
    compare-and-set loop.  Ledger values are therefore independent of
    the job count.

    Optionally, a {!tracer} receives structured trace events (phase
    completions, per-round sampler events); [hsp_cli --trace] installs a
    [Logs]-based one. *)

(** The counters, in the order {!counters} and {!pp} list them; each
    one's name there is its snapshot field's name. *)
type counter =
  | Gate_apps
  | Gate_fibres
  | Dft_apps
  | Dft_fibres
  | Basis_maps
  | Oracle_ops
  | Measurements
  | States_created
  | Peak_support
  | Pruned_amps
  | Peak_dense_alloc
  | Sampler_preps
  | Coset_visits
  | Classical_evals
  | Symbolic_rewrites
  | Symbolic_samples
  | Symbolic_solves
  | Symbolic_demotions

(** Timed phases, named ["sample-prep"], ["fourier"], ["measure"] and
    ["classical"] in [snapshot.phases]. *)
type phase = Sample_prep | Fourier | Measure | Classical

type snapshot = {
  gate_apps : int;  (** [State.apply_wires] / [apply_wire] calls *)
  gate_fibres : int;  (** fibres transformed by those calls *)
  dft_apps : int;
      (** single-wire DFTs: one per listed wire of a [State.fourier]
          sweep, on every backend *)
  dft_fibres : int;
      (** length-[d] fibres Fourier-transformed: total_dim/d per call on
          the dense backend, populated fibres only on the sparse one *)
  basis_maps : int;  (** [State.apply_basis_map] calls *)
  oracle_ops : int;  (** [State.apply_oracle_add] calls *)
  measurements : int;  (** [State.measure] / [measure_all] calls *)
  states_created : int;  (** constructor + tensor calls *)
  peak_support : int;  (** largest sparse segment seen *)
  pruned_amps : int;  (** nonzero amplitudes dropped below epsilon *)
  peak_dense_alloc : int;  (** largest dense amplitude array allocated *)
  sampler_preps : int;
      (** O(|G|) oracle-expansion/bucketing passes performed by
          [Coset_state.sampler] — shared across samples, so this stays
          at 1 per oracle however many rounds are drawn *)
  coset_visits : int;
      (** coset members visited while building sampled coset states —
          the per-sample work of [Coset_state.sampler] after the shared
          prep pass, O(|coset|) per round *)
  classical_evals : int;
      (** classical oracle evaluations performed by the simulator
          outside any quantum query — e.g. [Coset_state.sample_full]'s
          value-canonicalisation pass, which evaluates [f] on all |A|
          elements while the algorithm is charged a single quantum
          query.  Keeping this separate stops the cost ledger silently
          under-counting classical work. *)
  symbolic_rewrites : int;
      (** closed-form full-register DFT rewrites performed by
          [Backend_symbolic]: [|xH> -> phase-decorated uniform on
          H^perp], O(1) states rewritten per Fourier pass *)
  symbolic_samples : int;
      (** uniform subgroup-element draws performed by the symbolic
          backend's measurement (one per measured state) *)
  symbolic_solves : int;
      (** Hermite normal-form computations charged to the
          symbolic backend: subgroup canonicalisation and annihilator
          (dual) solves *)
  symbolic_demotions : int;
      (** symbolic states materialised into the dense backend because
          an amplitude-level operation was requested (see
          [Backend.Caps.symbolic_materialise]) *)
  phases : (string * float) list;
      (** accumulated wall-clock seconds per phase entered at least
          once (even for no measurable time), in declaration order *)
  counts : int array;  (** every counter, in declaration order ({!counters} reads it) *)
}

val reset : unit -> unit
(** Zero every counter and phase. *)

val snapshot : unit -> snapshot

(** {2 Recording — called by [State], the backends and the samplers} *)

val tick : counter -> unit
(** Add one. *)

val add : counter -> int -> unit
(** Add [n]: a kernel or sweep adds its total once per call. *)

val raise_to : counter -> int -> unit
(** Raise a high-water mark ([Peak_support], [Peak_dense_alloc]) to
    at least [n]. *)

(** {2 Structured trace events} *)

type tracer = string -> (string * string) list -> unit
(** [tracer event fields]: an event name plus key/value fields. *)

val set_tracer : tracer option -> unit
(** Install (or remove) the trace sink.  With no tracer installed,
    {!trace} is a no-op and hot paths pay one pointer compare. *)

val tracing : unit -> bool

val trace : string -> (string * string) list -> unit
(** Emit an event to the installed tracer, if any. *)

(** {2 Per-phase wall-clock timer} *)

val phase : phase -> (unit -> 'a) -> 'a
(** [phase p f] runs [f] and adds the elapsed wall-clock time and one
    call to the ledger under [p] (even when [f] raises).  Only when a tracer
    is installed does it format and emit a ["phase"] trace event (name
    and seconds fields); untraced, a call allocates a few words.
    Phases at the same level simply accumulate; nesting is allowed but
    a nested phase's time is {e also} inside its ancestor's, so the
    provided instrumentation only uses leaf-level phases. *)

(** {2 Rendering} *)

val counters : snapshot -> (string * int) list
(** Every counter by field name, in declaration order (the phase
    times are [snapshot.phases]). *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable ledger (the [--metrics] output): one
    [name : value] line per counter, then one per phase entered. *)
