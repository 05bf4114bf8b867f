(** Words and straight-line programs over a generating set.

    A word is a list of non-zero integers: [k > 0] denotes generator
    [k-1], [k < 0] denotes the inverse of generator [-k-1].  Words are
    the currency of presentations (relators) and of the constructive
    membership tests of Theorems 4–6, whose straight-line programs we
    realise as words (our groups are small enough that the exponential
    compression of SLPs is not needed; the interface keeps the SLP
    form for fidelity). *)

type t = int list

val inverse : t -> t

val reduce : t -> t
(** Free reduction: cancel adjacent [x x^-1] pairs. *)

val eval : 'a Group.t -> 'a list -> t -> 'a
(** [eval g gens w] multiplies out [w] over the element list [gens]
    (0-based indexing into the list). *)

(** Straight-line programs: sequences of definitions, each either a
    generator or a product [x_j * x_k^-1] of earlier lines (the form
    used by Beals–Babai). *)
module Slp : sig
  type instr =
    | Gen of int  (** line := generator i *)
    | Mul_inv of int * int  (** line := line j * line k^-1 *)

  type nonrec t = instr list

  val eval : 'a Group.t -> 'a list -> t -> 'a
  (** Value of the last line.  @raise Invalid_argument on empty or
      ill-formed programs. *)

  val of_word : t -> int list -> t
  (** [of_word prefix w]: extend a program so its last line evaluates
      to the word [w]; [prefix] is usually []. *)

  val to_word : t -> int list
  (** Expand a program back into a word (may be exponentially longer
      in pathological cases; fine at our sizes). *)
end
