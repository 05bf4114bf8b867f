(** Todd–Coxeter coset enumeration.

    Given a finite presentation and a subgroup given by generator
    words, enumerate the cosets of the subgroup in the presented
    group.  We use it to *verify* the presentations extracted by
    {!Presentation} (the index of the trivial subgroup must equal the
    group order — i.e. the relators kill exactly the right normal
    subgroup of the free group), which is precisely the property
    Theorem 8 relies on when it reconstructs a hidden normal subgroup
    from the relators of [G/N].

    The strategy is HLT (relator scanning with filling) with standard
    union-find coincidence processing. *)

exception Overflow
(** Raised when the live coset count exceeds [max_cosets]. *)

(* hsp-lint: allow unused-export *)
val enumerate :
  ngens:int -> relators:Word.t list -> subgroup:Word.t list -> max_cosets:int -> int
(** Number of cosets of the subgroup generated by [subgroup] in the
    group [< x_1..x_ngens | relators >].  Terminates iff the index is
    finite and at most [max_cosets] cosets are needed (raises
    {!Overflow} otherwise). *)

(* hsp-lint: allow unused-export *)
val order_of_presentation : Presentation.t -> max_cosets:int -> int
(** Index of the trivial subgroup: the order of the presented group. *)
