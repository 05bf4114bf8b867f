(** Exhaustive subgroup enumeration for small groups.

    Every subgroup is reachable from the trivial one by adjoining one
    generator at a time, so a closure-fixpoint over single-element
    extensions enumerates the full subgroup lattice.  Exponential in
    general — intended for the exhaustive-correctness sweeps in tests
    and benchmarks (every subgroup of a small group is run through the
    applicable HSP solver). *)

val all_subgroups : ?max_subgroups:int -> 'a Group.t -> 'a list list
(** All subgroups as element lists (each containing the identity),
    sorted by increasing order; the trivial subgroup first, the whole
    group last.
    @raise Invalid_argument if more than [max_subgroups] (default
    10_000) are found. *)

val normal_subgroups : 'a Group.t -> 'a list list
(** The normal ones only. *)
