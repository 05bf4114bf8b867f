(** Matrix groups over prime fields GF(p).

    Elements are [n x n] integer matrices with entries reduced mod
    [p].  This realises the paper's Section 6 examples: subgroups of
    [GL(k+1, 2)] generated by one matrix of type (a) — an invertible
    [k x k] block acting on a last coordinate — together with
    translation matrices of type (b).  Such groups have an elementary
    Abelian normal 2-subgroup [N] (the type-(b) translations) with
    [G/N] cyclic, the polynomial case of Theorem 13. *)

type elt = int array array

val identity : int -> elt (* hsp-lint: allow unused-export *)
val mul : int -> elt -> elt -> elt (* hsp-lint: allow unused-export *)
val inv : int -> elt -> elt (* hsp-lint: allow unused-export *)
(** Inverse by Gauss–Jordan over GF(p).
    @raise Invalid_argument if singular. *)

val det : int -> elt -> int (* hsp-lint: allow unused-export *)
val is_invertible : int -> elt -> bool (* hsp-lint: allow unused-export *)

(* hsp-lint: allow unused-export *)
val group : ?name:string -> p:int -> dim:int -> elt list -> elt Group.t

val section6_type_b : p:int -> k:int -> int array -> elt
(** [section6_type_b ~p ~k v] is the transvection-like matrix
    [\[I v; 0 1\]] adding [v] to the last coordinate's multiples —
    the paper's type (b).  These generate the elementary Abelian
    normal subgroup [N]. *)

val section6_group : p:int -> a:elt -> int array list -> elt Group.t
(** The paper's Section 6 family: generated by one type-(a) matrix
    (from the invertible [k x k] matrix [a]) and type-(b) matrices from
    the given translation vectors. *)

val section6_normal_gens : p:int -> k:int -> int array list -> elt list
(** The type-(b) generators of the elementary Abelian normal subgroup
    [N] *closed under the action of [a]*: callers should pass the same
    vectors as to {!section6_group}; the normal closure is computed by
    the HSP driver when needed. *)
