(** Presentations of finite groups, extracted from the Cayley graph.

    Theorems 7 and 8 of the paper rest on computing a presentation of
    the factor group [G/N] and pulling its relators back to [G].  The
    Beals–Babai machinery produces presentations for astronomically
    large black-box groups; our simulator-scale substitution walks the
    Cayley graph directly: a breadth-first spanning tree assigns every
    element a word in the generators, and every non-tree edge [x -g->
    x g] contributes the chord relator [word(x) g word(x g)^-1].  The
    resulting set presents the group (the chord relators normally
    generate the fundamental group of the Cayley graph). *)

type t = {
  ngens : int;
  relators : Word.t list;
}

val of_group : 'a Group.t -> t * ('a -> Word.t)
(** [of_group g] is the presentation on [g]'s generators together with
    the spanning-tree word map (each element expressed as a word in
    the generators).  Requires [g] enumerable. *)

val check_relators : 'a Group.t -> t -> bool (* hsp-lint: allow unused-export *)
(** Do all relators evaluate to the identity on [g]'s generators? *)
