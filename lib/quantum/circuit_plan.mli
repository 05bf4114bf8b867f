(** Circuit compiler: fused execution plans for the dense backend.

    The gate-by-gate fold ([Circuit.run_gates]) pays one full
    gather/transform/scatter pass over the amplitude planes {e per gate}, so QFT-shaped circuits (hundreds of
    1- and 2-qubit gates) are bound by memory traffic, not arithmetic.
    The compiler rewrites a gate list into a short list of {e steps},
    each one full pass:

    - {b Fused} — a maximal run of consecutive gates on the same wire
      list, multiplied into a single matrix at compile time;
    - {b Diag} — a maximal run of consecutive diagonal gates (arity
      ≤ 2; diagonal matrices commute, so the run merges regardless of
      wires — this collapses the QFT's controlled-[rk] ladder), applied
      as one pointwise product sweep;
    - {b Perm} — a maximal run of consecutive basis-permutation gates
      (X/CNOT/swap-shaped 0/1 matrices), composed into one basis
      permutation of the union wires — this collapses the QFT's
      trailing swap chain.

    Steps execute in place over the dense [float array] planes through
    unboxed OCaml kernels in the style of [Fft.exec]: a strided 2×2
    apply, a fully unrolled 4×4 apply and the merged diagonal sweep;
    arity ≥ 3 matrices and permutations run through a generic in-place
    kernel that stages each fibre.  All passes are chunked over the
    {!Parallel} pool by fibre, so results are bit-for-bit identical at
    every job count and under both {!Parallel.sched} orders (the plane-level
    contract [Backend_dense] already obeys).  Plans are verified
    symbolically — no simulation — by [Analysis.Circuit_check.check_plan].

    [Circuit.run] runs every circuit on a dense qubit register through
    its plan; [Circuit.run_gates] keeps the gate-by-gate fold as the
    reference path (and the only path for sparse/symbolic states). *)

type gate = Linalg.Cmat.t * int list
(** A unitary and its wires, most significant first (as {!Circuit.op}). *)

type step =
  | Fused of { wires : int list; mat : Linalg.Cmat.t; count : int }
      (** One dense apply of [mat] to [wires]; [count] source gates
          were multiplied into it (latest leftmost). *)
  | Diag of { gates : (int list * Linalg.Cx.t array) list }
      (** One pointwise sweep multiplying each amplitude by the product
          of the listed diagonal factors: per source gate its wires and
          its [2^arity] diagonal entries, in source order. *)
  | Perm of { wires : int list; perm : int array; count : int }
      (** One basis-permutation pass over the sorted union [wires]:
          fibre sub-index [s] moves to [perm.(s)]; [count] source
          gates were composed into it. *)

type t = { num_qubits : int; steps : step list; source_gates : int }

val classify_eps : float
(** Tolerance used to classify gates as diagonal / permutation at
    compile time (and by the plan verifier when reconstructing them). *)

val perm_max_wires : int
(** A Perm step stops absorbing gates once the union would exceed this
    many wires (table size [2^k]). *)

(** {2 Compilation and execution} *)

val compile : num_qubits:int -> gate list -> t
(** Compile a validated gate sequence (as produced by {!Circuit.ops})
    into a fused plan.  Purely structural — no simulation; cost is the
    gate count times small-matrix arithmetic. *)

val run_planes : t -> re:float array -> im:float array -> float array * float array
(** Execute the plan on an amplitude-plane pair of length
    [2^num_qubits], returning fresh output planes (inputs untouched):
    one [Array.copy] of each plane, then every step in place on the
    copies.  Every step is validated first — the kernels index the
    planes unchecked and [t] is a public record.
    @raise Invalid_argument ["Circuit_plan.run_planes: ..."] on a
    negative or oversized [num_qubits], a plane-length mismatch, a step wire out of range, duplicate or empty
    wire lists, a matrix whose dimension is not [2^|wires|], a
    permutation table of the wrong length or with an entry out of
    range, or a diagonal factor that is not on 1 or 2 wires with
    [2^|wires|] entries. *)

(** {2 Introspection} *)

val gate_count : t -> int
(** Source gates covered by the plan. *)

val step_count : t -> int

val bytes : t -> int
(** Approximate heap footprint of the plan (matrices, diagonal tables,
    permutation tables) for cache byte-accounting. *)

val stats : t -> (string * string) list
(** Flat step/kernel breakdown (steps, fused matrices by arity,
    diagonal and permutation passes and the gates they absorb). *)

val fingerprint : num_qubits:int -> gate list -> string
(** Hex digest of the exact circuit structure: wire lists and the IEEE
    bit patterns of every matrix entry.  Two circuits share a
    fingerprint iff they compile to the same plan, so it keys the
    service's plan cache. *)

val pp : Format.formatter -> t -> unit
