(** Static well-formedness checking for {!Quantum.Circuit} values.

    A circuit is validated {e without simulating it}: wire indices must
    be in range and pairwise distinct per gate, every gate matrix must
    be square of dimension [2^|wires|], and every gate must be unitary
    to tolerance ([U* U ~ I] via {!Linalg.Cmat.is_unitary}).  The
    successful result is a symbolic cost report — gate count, circuit
    depth under ASAP wire scheduling, and the number of diagonal
    (rotation) gates — the quantities the paper's gate-count claims are
    stated in.

    For the QFT builder specifically, {!check_qft} additionally
    cross-checks [Circuit.gate_count] against the closed forms of
    Coppersmith's decomposition: [n(n+1)/2 + floor(n/2)] gates exactly,
    and [n + floor(n/2) + sum_{g=1}^{min(t-1, n-1)} (n-g)] when
    rotations beyond [approx_threshold = t] are dropped. *)

type violation = {
  gate : int option;  (** offending gate position, [None] if circuit-level *)
  what : string;
}

type report = {
  num_qubits : int;
  gates : int;  (** total gate applications *)
  depth : int;  (** ASAP schedule depth: gates sharing no wire commute *)
  rotations : int;  (** diagonal gates (controlled phases of the QFT) *)
  max_arity : int;  (** widest gate, in wires *)
}

(* hsp-lint: allow unused-export *)
val check : ?eps:float -> Quantum.Circuit.t -> (report, violation list) result
(** All violations are collected, not just the first.  [eps] is the
    unitarity tolerance (default [1e-9]). *)

val qft_exact_gate_count : int -> int
(** [n(n+1)/2 + floor(n/2)]: n Hadamards, n(n-1)/2 controlled
    rotations, [floor(n/2)] bit-reversal swaps. *)

val qft_approx_gate_count : threshold:int -> int -> int
(** Gate count of [Circuit.qft ~approx_threshold:threshold n]: only
    controlled rotations [rk k] with [k <= threshold] survive, i.e.
    [O(n t)] gates instead of [O(n^2)]. *)

val check_qft : ?approx_threshold:int -> int -> (report, violation list) result
(** Builds [Circuit.qft ?approx_threshold n], runs {!check}, and
    cross-checks the observed gate and rotation counts against the
    closed-form budgets above. *)

val pp_violation : Format.formatter -> violation -> unit

val pp_report : Format.formatter -> report -> unit
