(** Cost-ledger observability for the simulator.

    The paper's theorems are complexity claims, so the reproduction
    lives or dies on trustworthy cost accounting: wall clock and oracle
    queries alone cannot show {e where} an algorithm spends its gates
    and support.  This module keeps one global mutable ledger:

    - {e per-call counters} — gate ({!State.apply_wires}, one per gate
      of a {!Circuit.run}) and DFT ({!State.apply_dft}, one per wire of
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
    - {e per-phase timers} — accumulated wall-clock seconds labelled by
      phase ("sample-prep", "fourier", "measure", "classical"), wrapped
      around the samplers and the solvers' classical post-processing.

    The ledger is global and reset per experiment ({!reset}; done by
    [Runner.run] and the CLI).  Counter updates are unconditional — a
    handful of integer increments per {e operation}, not per amplitude —
    so the overhead is unobservable next to the state-vector work.  The
    counters are [Atomic.t], so ticks are safe from any domain (the
    dense backend runs its kernels on the {!Parallel} pool); peaks are
    raised with a compare-and-set loop.  Ledger values are therefore
    independent of the job count.

    Optionally, a {!tracer} receives structured trace events (phase
    completions, per-round sampler events); [hsp_cli --trace] installs a
    [Logs]-based one. *)

type snapshot = {
  gate_apps : int;  (** [State.apply_wires] / [apply_wire] calls *)
  gate_fibres : int;  (** fibres transformed by those calls *)
  dft_apps : int;
      (** single-wire DFTs: one per [State.apply_dft] call and one per
          listed wire of a [State.fourier] sweep, on every backend *)
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
      (** accumulated wall-clock seconds per phase, first-seen order *)
}

val reset : unit -> unit
val snapshot : unit -> snapshot

(** {2 Recording — called by [State] and the backends} *)

val record_gate : unit -> unit
val add_gate_fibres : int -> unit
val add_dft_apps : int -> unit
(** Count DFT applications: one per wire transformed, so a whole
    sweep adds its wire count with one atomic add. *)

val add_dft_fibres : int -> unit
val record_basis_map : unit -> unit
val record_oracle : unit -> unit
val record_measurement : unit -> unit
val record_state_created : unit -> unit

val record_support : int -> unit
(** Raise the peak-support high-water mark (sparse backend, after every
    operation). *)

val add_pruned : int -> unit
(** Count amplitudes a sparse kernel dropped below its pruning
    threshold; kernels add one total per call. *)

val record_dense_alloc : int -> unit

val record_sampler_prep : unit -> unit
(** One shared O(|G|) bucketing pass in [Coset_state.sampler]. *)

val add_coset_visits : int -> unit
(** Coset members visited while building one sampled coset state. *)

val add_classical_evals : int -> unit
(** Classical oracle evaluations performed by the simulator outside a
    quantum query (see the [classical_evals] field). *)

val record_symbolic_rewrite : unit -> unit
(** One closed-form DFT rewrite in [Backend_symbolic]. *)

val record_symbolic_sample : unit -> unit
(** One uniform subgroup-element draw (symbolic measurement). *)

val record_symbolic_solve : unit -> unit
(** One HNF/SNF normal-form computation (subgroup canonicalisation or
    annihilator solve) in the symbolic backend. *)

val record_symbolic_demotion : unit -> unit
(** One symbolic state materialised into the dense backend. *)

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

val phase : string -> (unit -> 'a) -> 'a
(** [phase name f] runs [f] and adds the elapsed wall-clock seconds to
    the ledger under [name] (even when [f] raises).  Only when a tracer
    is installed does it format and emit a ["phase"] trace event (name
    and seconds fields); untraced, a call allocates a few words.
    Phases at the same level simply accumulate; nesting is allowed but
    a nested phase's time is {e also} inside its ancestor's, so the
    provided instrumentation only uses leaf-level phases. *)

(** {2 Rendering} *)

val counters : snapshot -> (string * int) list
(** Every integer counter by field name, in a fixed order (the phase
    times are [snapshot.phases]). *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable ledger (the [--metrics] output). *)
