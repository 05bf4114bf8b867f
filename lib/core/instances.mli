open Groups

(** Canned HSP instances for the examples, tests and benchmarks: each
    bundles a group, ground-truth hidden subgroup generators, and the
    canonical hiding function of that subgroup. *)

type 'a t = {
  name : string;
  group : 'a Group.t;
  hidden_gens : 'a list;  (** ground truth *)
  hiding : 'a Hiding.t;
}

val make : name:string -> 'a Group.t -> 'a list -> 'a t
(** Build the canonical instance for the subgroup generated by the
    given elements. *)

val simon : n:int -> mask:int array -> Cyclic.elt t
(** Simon's problem on [Z_2^n] with hidden [{0, mask}]. *)

val abelian_random : Random.State.t -> dims:int array -> Cyclic.elt t
(** Random hidden subgroup of a product of cyclic groups. *)

val dihedral_rotation : n:int -> d:int -> Dihedral.elt t
(** Hidden (normal) rotation subgroup [<s^d>] of [D_n]; [d | n]. *)

val dihedral_reflection : n:int -> d:int -> Dihedral.elt t
(** Hidden order-2 reflection subgroup [{1, s^d t}] of [D_n] — the
    Ettinger–Høyer instance (not normal for n > 2). *)

val heisenberg_random : Random.State.t -> p:int -> m:int -> Extraspecial.elt t
(** Random hidden subgroup of the extra-special group [H_p(m)]
    (Corollary 12). *)

(* hsp-lint: allow unused-export *)
val heisenberg_center : p:int -> m:int -> Extraspecial.elt t
(** The center [G' = Z(G)] as hidden subgroup. *)

val wreath_random : Random.State.t -> k:int -> Wreath.elt t
(** Random hidden subgroup of [Z_2^k wr Z_2] (Theorem 13 /
    Rötteler–Beth). *)

val wreath_diagonal : k:int -> Wreath.elt t (* hsp-lint: allow unused-export *)
(** The classic wreath instance: hidden [{1, (w, w, 1)}]-style
    involution pairing the two halves (here with [w = 0]: the bare
    swap). *)

val semidirect_random : Random.State.t -> n:int -> m:int -> Semidirect.elt t
(** Random hidden subgroup of [Z_2^n x| Z_m], the cyclic top acting by
    the [n/m]-fold cyclic shift — Theorem 13's fully polynomial case.
    Requires [m | n]. *)

val dicyclic_random : Random.State.t -> n:int -> Dicyclic.elt t
(** Random hidden subgroup of the dicyclic group [Q_{4n}]
    (|G'| = n: the Theorem 11 sweep family). *)

val dicyclic_center : n:int -> Dicyclic.elt t (* hsp-lint: allow unused-export *)
(** The order-2 center of [Q_{4n}] as hidden subgroup. *)

val frobenius_translations : p:int -> q:int -> Metacyclic.elt t
(** The translation subgroup [Z_p] hidden inside the Frobenius group
    [Z_p x| Z_q] — a hidden normal subgroup of a solvable group
    (Theorem 8). *)

val affine_translations : p:int -> Metacyclic.elt t
(** Same, inside the full affine group [AGL(1, p)]. *)

val perm_normal_klein : unit -> Perm.elt t
(** The Klein four-group hidden inside [S_4] — a hidden normal
    subgroup of a permutation group (Theorem 8's showcase). *)

(* hsp-lint: allow unused-export *)
val random_subgroup : Random.State.t -> name:string -> 'a Group.t -> 'a t
(** Uniformly pick a few elements and hide their closure. *)

(** {2 The planted quotient instance}

    The Abelian HSP on [Z_{d_1} x ... x Z_{d_r}] with hidden subgroup
    [H = prod m_i Z_{d_i}] and hiding function
    [f(x) = (x_i mod m_i)_i] — the instance [hsp_cli solve-abelian],
    the [hsp_served] daemon and the bench harness plant.  [dims] and
    [moduli] have equal length. *)

val max_wires : int
(** [1024]: the most cyclic factors [r] an instance may name, five
    times the largest register any test, example or README uses
    ([r = 200]).  It keeps {!quotient_gens}' [r x r] generators at a
    megaword. *)

val expand_repeat : string -> (int list, [ `Malformed | `Repeat_out_of_range ]) result
(** One entry of a [dims] or [moduli] list as the CLI and the daemon
    read it: ["b"] is [\[b\]] and ["b^k"] is [k] copies of [b], so
    shapes such as [Z_2^200] stay readable.  Blanks around [b] and [k]
    are ignored; [k] must lie in [\[0, 100_000\]]. *)

val expand_field :
  ('a -> (int list, string) result) -> 'a list -> (int array, string) result
(** A whole [dims] or [moduli] list, expanded entry by entry.  The
    first entry that fails, or that takes the field past {!max_wires}
    factors, stops the expansion with an error; the latter's names the
    bound. *)

val quotient_violation : dims:int array -> moduli:int array -> string option
(** [None] when [r <= max_wires], [1 <= m_i] and [m_i | d_i] for every
    [i]; otherwise the first violation, as the one {!expand_field}
    reports past the bound or as
    ["need 1 <= m_i and m_i | d_i (got m=.., d=..)"]. *)

val quotient_gens : dims:int array -> moduli:int array -> int array list
(** The generators [m_i e_i] of [H] (each reduced mod [d_i]). *)

val quotient_subgroup : dims:int array -> moduli:int array -> Quantum.Backend_symbolic.Subgroup.t
(** [H] in canonical HNF form: what the symbolic sampler consumes and
    what recovered generators are checked against, at any size. *)

val quotient_oracle : moduli:int array -> int array -> int
(** [f x]: the residues [x_i mod m_i], encoded mixed-radix over
    [moduli]. *)

val quotient_mem : moduli:int array -> int array -> bool
(** Membership in [H]: every [x_i] divisible by [m_i]. *)
