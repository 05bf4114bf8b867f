open Groups

(** Hiding functions: the problem input of the HSP.

    A function [f] on a group [G] {e hides} a subgroup [H] when it is
    constant on left cosets of [H] and distinct across cosets.  The
    type below carries the oracle together with two query counters:

    - [classical]: single-element evaluations (e.g. the membership
      test [f x = f 1]);
    - [quantum]: superposition evaluations, ticked by the Fourier
      samplers ({!Quantum.Coset_state}), one per prepared coset state.

    Values of [f] are abstract tags represented as [int]s (the
    canonical index of the coset); algorithms may only compare them
    for equality, which is all the paper's model permits. *)

type 'a t = {
  raw : 'a -> int;
      (** Un-counted evaluation, for handing to quantum samplers which
          do their own (quantum) accounting. *)
  classical : int ref;
  quantum : Quantum.Query.t;
}

val eval : 'a t -> 'a -> int
(** Counted classical evaluation. *)

val in_hidden_subgroup : 'a Group.t -> 'a t -> 'a -> bool
(** [f x = f 1]: two classical queries. *)

val of_subgroup : 'a Group.t -> 'a list -> 'a t
(** Build the canonical hiding function of the subgroup generated by
    the given elements: [f x] is a canonical label of the coset [xH].
    Requires the ambient group enumerable; the labelling is
    precomputed so oracle calls are O(1). *)

val of_fun : ('a -> int) -> 'a t
(** Wrap an arbitrary coset-invariant function. *)

val total_queries : 'a t -> int * int
(** [(classical, quantum)]. *)

val reset : 'a t -> unit
