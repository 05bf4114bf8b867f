(** Finite black-box groups and the structural algorithms the paper's
    quantum algorithms consume.

    A group is a first-class value bundling the black-box operations of
    Babai–Szemerédi (multiplication, inversion, identity, equality)
    together with a generating set and a string encoding used only for
    hashing.  Elements are polymorphic; concrete families (permutation,
    dihedral, matrix, Heisenberg, wreath...) live in sibling modules.

    The generic algorithms below operate by explicit enumeration — the
    honest substitution for the Beals–Babai Las Vegas toolbox on the
    group sizes a state-vector quantum simulator can drive (see
    DESIGN.md §2).  [elements] raises if the group exceeds
    1_000_000 elements. *)

type 'a t = {
  name : string;
  mul : 'a -> 'a -> 'a;
  inv : 'a -> 'a;
  id : 'a;
  equal : 'a -> 'a -> bool;
  repr : 'a -> string;  (** injective encoding, used as hash key *)
  generators : 'a list;
}

val make :
  name:string ->
  mul:('a -> 'a -> 'a) ->
  inv:('a -> 'a) ->
  id:'a ->
  equal:('a -> 'a -> bool) ->
  repr:('a -> string) ->
  generators:'a list ->
  'a t

val pow : 'a t -> 'a -> int -> 'a
(** [pow g x k] for any integer [k] (negative powers via inverse),
    by binary exponentiation. *)

val elements : 'a t -> 'a list
(** All elements, by breadth-first closure of the generators.
    Deterministic order (BFS layers).  @raise Invalid_argument if the
    group exceeds 1_000_000 elements. *)

val order : 'a t -> int

val element_order : 'a t -> 'a -> int
(** Order of a single element (successive powers). *)

val closure : 'a t -> 'a list -> 'a list
(** Subgroup generated by the given elements (BFS; same guard as
    {!elements}). *)

val closure_set : 'a t -> 'a list -> (string, 'a) Hashtbl.t
(** Same, as a hash table keyed by [repr] for O(1) membership. *)

val mem : 'a t -> (string, 'a) Hashtbl.t -> 'a -> bool
(** Membership in a closure set. *)

val normal_closure : 'a t -> 'a list -> 'a list
(** Smallest normal subgroup of [g] containing the given elements:
    closure under multiplication and conjugation by the generators
    of [g]. *)

val is_abelian : 'a t -> bool
val is_normal : 'a t -> 'a list -> bool
(** [is_normal g h_gens]: is [<h_gens>] normal in [g]?  Checks
    conjugates of the subgroup generators by the group generators. *)

val subgroup_equal : 'a t -> 'a list -> 'a list -> bool
(** Do two generator lists generate the same subgroup? *)

val center : 'a t -> 'a list (* hsp-lint: allow unused-export *)
val commutator_subgroup : 'a t -> 'a list
(** The derived subgroup [G'] = normal closure of the generators'
    commutators. *)

val is_solvable : 'a t -> bool

val quotient : 'a t -> 'a list -> 'a t
(** [quotient g n_elements] for a normal subgroup [N]: the factor group
    [G/N] whose carrier is canonical coset representatives (the BFS-
    least element of each coset).  Generators are the images of [g]'s
    generators.  Requires [g] enumerable. *)

val quotient_map : 'a t -> 'a list -> 'a -> 'a
(** The canonical projection [G -> G/N] underlying {!quotient}: each
    element to the BFS-least member of its coset. *)

val subgroup : ?name:string -> 'a t -> 'a list -> 'a t
(** The subgroup generated by the given elements, packaged as a group
    in its own right. *)

val sylow_subgroup : 'a t -> int -> 'a list (* hsp-lint: allow unused-export *)
(** Generators-closure (full element list) of a Sylow [p]-subgroup,
    found by the normaliser-growing algorithm.
    @raise Invalid_argument if [p] does not divide the group order. *)

val composition_series : 'a t -> 'a list list (* hsp-lint: allow unused-export *)
(** For a solvable group: a composition series
    [G = G_1 > G_2 > ... > G_t = 1] (element lists) with factors of
    prime order, obtained by refining the derived series.
    @raise Invalid_argument on non-solvable input. *)

val random_element : Random.State.t -> 'a t -> 'a (* hsp-lint: allow unused-export *)
(** Uniform over the enumerated group. *)

val random_subgroup_gens : Random.State.t -> 'a t -> 'a list
(** One to three uniform random elements — generators of a random
    subgroup (distribution is whatever the closure of uniform picks
    gives; useful for tests). *)
