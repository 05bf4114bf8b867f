(** Experiment driver: run a solver on an instance, verify the answer
    against ground truth, and collect query and cost accounting. *)

(** {2 Failure classification}

    Solvers signal failure by raising; a one-shot CLI can simply die,
    but a long-running caller (the [hsp_served] service) must map the
    exception to a structured reply and keep the connection alive.
    {!classify_failure} is that mapping. *)

type failure =
  | Retryable of string
      (** a probabilistic sampling loop exhausted its attempt budget
          ({!Order_finding.Not_converged}); the same request may well
          succeed on a retry *)
  | Rejected of string
      (** the request itself was invalid — size caps, malformed dims
          ([Invalid_argument]); retrying is pointless *)
  | Crashed of string  (** anything else: a bug, not a request problem *)

val classify_failure : exn -> failure

val failure_to_string : failure -> string
(** ["retryable: ..."] / ["rejected: ..."] / ["crashed: ..."]. *)

type report = {
  instance : string;
  algorithm : string;
  ok : bool;
      (** returned generators generate exactly the hidden subgroup; for
          a {!closed_form} check, its verdict *)
  classical_queries : int;
  quantum_queries : int;
  group_order : int;  (** [-1] for a {!closed_form} check *)
  subgroup_order : int;  (** [-1] for a {!closed_form} check *)
  metrics : Quantum.Metrics.snapshot;
      (** simulator cost ledger accumulated during the solve *)
}

val run : algorithm:string -> 'a Instances.t -> solver:('a Instances.t -> 'a list) -> report
(** Resets the instance's counters and the {!Quantum.Metrics} ledger,
    runs the solver, and checks the result with
    {!Groups.Group.subgroup_equal}.  The check and both orders
    enumerate the group ([Group.order] and [Group.closure] are
    Theta(|G|)), so [run] is for instances that can be enumerated. *)

val closed_form :
  instance:string -> algorithm:string -> (Quantum.Query.t -> bool * 'r) -> report * 'r
(** For solvers with no {!Instances} wrapper (order finding,
    constructive membership): resets the {!Quantum.Metrics} ledger and
    runs [f] on a fresh query counter.  [f] returns its closed-form
    verdict, which becomes [ok], and its answer, returned alongside the
    report.  The queries are all quantum and both orders are [-1]. *)

(** {2 One instance per theorem}

    The fixed set the bench [smoke] gate and the configuration-matrix
    test both run: one small instance each of Theorems 3, 8, 11, 13
    (general and cyclic-factor cases), 4 and 6, in that order. *)

type theorem_run = {
  thm : string;
      (** claim label in [Analysis.Cost_check]: ["3"], ["8"], ["11"],
          ["13g"], ["13c"], ["4"], ["6"] *)
  order : int;  (** |G| (or the order bound) the claim is stated in *)
  quotient : int;  (** |G/N|; [1] when the theorem has no quotient *)
  commutator : int;  (** |G'|; [1] when not applicable *)
  nu : int;  (** nu(G/N) *)
  report : report;
      (** for Theorems 4 and 6, a {!closed_form} report: [ok] is the
          check (order 4; an expression exists) *)
  answer : string;
      (** the solver's answer rendered canonically (generators by the
          group's [repr], the order, or the membership exponents), so
          two runs can be compared exactly *)
}

val theorem_runs : Random.State.t -> theorem_run list
(** Draw and solve the set with [rng], under the session-default
    backend and job count.  Resets the {!Quantum.Metrics} ledger before
    each solve, so each report's metrics are that solve's alone. *)
