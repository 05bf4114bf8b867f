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
      (** returned generators generate exactly the hidden subgroup;
          vacuously [true] when [verified = false] *)
  verified : bool;
      (** whether ground-truth verification actually ran; [false] when
          {!run} was called with [~verify:false] *)
  classical_queries : int;
  quantum_queries : int;
  group_order : int;
      (** [-1] when the group was not enumerated (unverified, or a
          closed-form check) *)
  subgroup_order : int;  (** [-1] when the group was not enumerated *)
  metrics : Quantum.Metrics.snapshot;
      (** simulator cost ledger accumulated during the solve *)
}

val run :
  ?verify:bool ->
  algorithm:string ->
  'a Instances.t ->
  solver:('a Instances.t -> 'a list) ->
  report
(** Resets the instance's counters and the {!Quantum.Metrics} ledger,
    runs the solver, and checks the result with
    {!Groups.Group.subgroup_equal}.

    Verification enumerates the group — [Group.order] and
    [Group.closure] are Theta(|G|) — which is exactly what the
    beyond-cap instances cannot afford; pass [~verify:false] (default
    [true]) to skip it.  The report then carries [verified = false],
    [ok = true] vacuously, and [-1] for both orders. *)

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
      (** for Theorems 4 and 6, [ok] is the closed-form check (order 4;
          an expression exists), the queries are all quantum, and both
          orders are [-1] *)
  answer : string;
      (** the solver's answer rendered canonically (generators by the
          group's [repr], the order, or the membership exponents), so
          two runs can be compared exactly *)
}

val theorem_runs : Random.State.t -> theorem_run list
(** Draw and solve the set with [rng], under the session-default
    backend and job count.  Resets the {!Quantum.Metrics} ledger before
    each solve, so each report's metrics are that solve's alone. *)
