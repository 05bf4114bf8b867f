(** Per-theorem cost-claim gates.

    The paper's evaluation {e is} its complexity claims: each theorem
    promises polynomially many oracle queries and elementary operations.
    [Quantum.Metrics] measures those costs at runtime; this module holds
    a declarative table of claim polynomials — explicit query and gate
    budgets as functions of the structural parameters each theorem is
    stated in (log |G|, |G/N|, |G'|, nu(G/N)) — and checks measured
    snapshots against them.  The bench [smoke] and E10 tables evaluate
    every row through {!check} and the harness exits nonzero on any
    violation, turning "costs scale as the theorems say" into a CI
    regression gate instead of a number someone must eyeball.

    Budget constants are calibrated with generous (~4x) slack over the
    seed-revision measurements, so the gates trip on asymptotic
    regressions (a solver suddenly enumerating the group, a sampler
    looping) and not on benign round-count jitter of the Las Vegas
    algorithms. *)

type params = {
  group_order : int;  (** |G| (or the relevant order/exponent bound) *)
  quotient_order : int;  (** |G/N|; [1] when the theorem has no quotient *)
  commutator_order : int;  (** |G'|; [1] when not applicable *)
  nu : int;  (** nu(G/N): number of distinct prime divisors of |G/N| *)
}

val params :
  ?quotient_order:int -> ?commutator_order:int -> ?nu:int -> group_order:int -> unit -> params
(** Optional fields default to [1]. *)

val log2_ceil : int -> int (* hsp-lint: allow unused-export *)
(** [max 1 (ceil (log2 n))] — every budget is a polynomial in this. *)

type claim = {
  label : string;
      (** row key used by the bench tables: ["3"], ["4"], ["6"], ["8"],
          ["11"], ["13g"], ["13c"] *)
  paper_theorem : string;  (** theorem number(s) in the paper *)
  description : string;
  queries : params -> int;  (** quantum-query budget *)
  gates : params -> int;  (** gate + DFT application budget *)
}

val find : string -> claim option
(** Look up a claim by bench label. *)

type verdict = {
  label : string;
  queries_used : int;
  queries_budget : int;
  gates_used : int;
  gates_budget : int;
  ok : bool;
}

val check_snapshot :
  claim -> params -> queries:int -> Quantum.Metrics.snapshot -> verdict
(** Gate usage taken as [gate_apps + dft_apps] of the snapshot. *)

val cell : verdict -> string
(** Table cell: ["ok"] or ["OVER q:34>20"] — machine-greppable, and
    [ok] exactly when {!verdict.ok}. *)

val pp : Format.formatter -> verdict -> unit
