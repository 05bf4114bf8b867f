(** The pre-segment hashtable sparse representation, retained as a
    baseline: bench E12 measures the sorted-segment {!Backend_sparse}
    against it, and the differential suite ([test_backends.ml]) uses it
    as an independent oracle for the rewritten kernels.

    Not reachable from the {!State} dispatcher, and silent on the
    {!Metrics} ledger (a yardstick must not perturb what it measures).
    Serial, boxed, and its float reductions run in hashtable iteration
    order — the costs the sorted-segment backend was built to remove. *)

type t

val create : int array -> t
val of_basis : int array -> int array -> t
val of_amplitudes : int array -> Linalg.Cvec.t -> t
val of_support : int array -> (int array * Linalg.Cx.t) list -> t
val uniform : int array -> t
val dims : t -> int array
val num_wires : t -> int
val total_dim : t -> int
val support_size : t -> int
val amplitudes : t -> Linalg.Cvec.t
val amp_at : t -> int -> Linalg.Cx.t
val iter_nonzero : t -> (int -> Linalg.Cx.t -> unit) -> unit
val tensor : t -> t -> t
val apply_wires : t -> wires:int list -> Linalg.Cmat.t -> t
val apply_dft : ?plan:Linalg.Fft.plan -> t -> wire:int -> inverse:bool -> t
val apply_basis_map : t -> (int array -> int array) -> t
val apply_oracle_add : t -> in_wires:int list -> out_wire:int -> f:(int array -> int) -> t
val probabilities : t -> wires:int list -> float array
val measure : Random.State.t -> t -> wires:int list -> int array * t
val norm : t -> float
val approx_equal : ?eps:float -> t -> t -> bool
