(** Qubit circuits.

    A circuit is a straight-line sequence of gate applications on a
    register of qubits.  The QFT builder emits the textbook Hadamard /
    controlled-rotation / swap decomposition, optionally truncating
    small rotations (the *approximate* QFT the paper relies on via
    Kitaev's construction); tests check it against the dense DFT
    matrix.

    The circuit layer is the textbook check on the qudit DFT, not an
    executor the solvers use: {!run} applies one gate at a time, on any
    backend, and the solvers' dense Fourier transform is {!Qft.forward}.

    Ops are stored latest-first internally so building a circuit is
    linear in its length; {!ops} returns them in application order. *)

type op =
  | Gate of Linalg.Cmat.t * int list
      (** Unitary on the listed wires, most significant first. *)

type t

val empty : int -> t (* hsp-lint: allow unused-export *)
val num_qubits : t -> int

val ops : t -> op list
(** The gate sequence in application order. *)

val of_ops : int -> op list -> t (* hsp-lint: allow unused-export *)
(** [of_ops n ops] wraps a raw op list {e without} the validation
    {!gate} performs — for fixtures exercising [Analysis.Circuit_check]
    on malformed circuits.  Regular construction goes through {!gate}. *)

val gate : t -> Linalg.Cmat.t -> int list -> t (* hsp-lint: allow unused-export *)
(** Append a gate (applied after the existing ones).
    @raise Invalid_argument on an empty wire list, a wire outside
    [0, num_qubits), duplicate wires, or a matrix whose dimension is
    not [2^|wires|] — the same conditions [Analysis.Circuit_check]
    enforces statically. *)

val seq : t -> t -> t (* hsp-lint: allow unused-export *)
(** [seq a b] runs [a] then [b]; both must have the same arity. *)

val run : t -> State.t -> State.t (* hsp-lint: allow unused-export *)
(** One [State.apply_wires] per gate, in order, on any backend.
    @raise Invalid_argument if the state is not a register of
    [num_qubits] qubits. *)

val to_matrix : t -> Linalg.Cmat.t (* hsp-lint: allow unused-export *)
(** Dense unitary of the whole circuit, column by column through
    {!run} (exponential; small circuits only). *)

val gate_count : t -> int

val qft : ?approx_threshold:int -> int -> t
(** [qft n] is the quantum Fourier transform on [n] qubits,
    matching [Linalg.Cmat.dft (2^n)] exactly under the big-endian
    index convention of {!State}.  [approx_threshold] drops controlled
    rotations [rk k] with [k > approx_threshold] (Coppersmith's
    approximate QFT); default keeps all. *)

val inverse : t -> t (* hsp-lint: allow unused-export *)
(** Reverses the circuit, inverting each gate (by adjoint). *)
