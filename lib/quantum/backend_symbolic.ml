open Linalg
module Zm = Numtheory.Zmatrix

(* Symbolic coset-state backend.

   A state is not an amplitude array but one of two closed forms over
   A = Z_{d_0} x ... x Z_{d_{r-1}}, on a subgroup H (canonical HNF
   basis, see Zmatrix):

     coset state   |c + H>  =  1/sqrt|H| * sum_{x in c + H} |x>
     phased state  |H, p>   =  1/sqrt|H| * sum_{y in H} chi_p(y) |y>

   with chi_p(y) = prod_i omega_{d_i}^{p_i y_i}.  The full-register
   Abelian DFT (omega^{+xy} convention) swaps the two:

     F |c + H>  =  |H^perp, c>        F^-1 |c + H>  =  |H^perp, -c>
     F |H, p>   =  |-p + H^perp>      F^-1 |H, p>   =  |p + H^perp>

   The general form gphase/sqrt|H| sum_{x in c+H} chi_p(x)|x> is never
   needed: every state starts as a coset (of_coset, or a basis state),
   and the DFT alternates between the shape with p = 0 and the one with
   c = 0, so the global phase chi_p(c) it would pick up is always 1.
   So a Fourier pass is a memoised annihilator and no arithmetic at all
   (a negation for F^-1 of a coset, F of a phased state) — nothing
   scales with |H|, |A| or the support, and no total-dimension integer
   is ever formed.

   A coset state keeps the representative it was given (brought into
   range); the canonical one, Subgroup.reduce c, is computed where it
   is read, so a draw is the one the reduced representative gives.

   The rewrite is a whole-register operation ({!fourier}): State's
   Fourier sweep applies it when the swept wires are a permutation of
   the register.  A single-wire DFT or a partial sweep has no closed
   form here, so the State dispatcher demotes to the dense backend
   first, capped at Backend.Caps.symbolic_materialise support. *)

module Subgroup = struct
  type t = {
    hnf : Zm.hnf;  (* checked once, rows' nonzero columns recorded *)
    order_log2 : float;
    order_int : int option;
    mutable dual_memo : t option;
        (* The annihilator is a property of H alone, shared by every
           state carrying this subgroup: one solve per sampler, not per
           sample. *)
  }

  let of_hnf hnf =
    {
      hnf;
      order_log2 = Zm.hnf_order_log2 hnf;
      order_int = Zm.hnf_order_int hnf;
      dual_memo = None;
    }

  let of_gens ~dims gens =
    Metrics.tick Symbolic_solves;
    of_hnf (Zm.hnf_of_gens ~dims gens)

  let trivial dims = of_gens ~dims []
  let full dims = of_gens ~dims (List.init (Array.length dims) (fun i ->
      Array.init (Array.length dims) (fun j -> if i = j then 1 else 0)))

  let dims s = Zm.hnf_dims s.hnf
  let basis s = Zm.hnf_rows s.hnf
  let order_log2 s = s.order_log2
  let order_int s = s.order_int
  let mem s x = Zm.hnf_mem s.hnf x
  let reduce s x = Zm.hnf_reduce s.hnf x

  let sample rng s =
    Metrics.tick Symbolic_samples;
    Zm.hnf_sample rng s.hnf

  let elements s =
    (match s.order_int with
    | Some n when n <= Backend.Caps.symbolic_materialise -> ()
    | _ ->
        invalid_arg
          "Backend_symbolic: subgroup too large to materialise (Caps.symbolic_materialise)");
    Zm.hnf_elements s.hnf

  let equal a b = Backend.dims_equal (dims a) (dims b) && Zm.equal (basis a) (basis b)

  let dual s =
    match s.dual_memo with
    | Some d -> d
    | None ->
        Metrics.tick Symbolic_solves;
        let d = of_hnf (Zm.hnf_dual s.hnf) in
        d.dual_memo <- Some s;
        s.dual_memo <- Some d;
        d
end

(* A coset's [c] is in range but any point of it; a phased state's [p]
   is in range and read only through chi_p on H, so any p + H^perp
   serves. *)
type shape = Coset of int array | Phased of int array

type t = { sub : Subgroup.t; shape : shape }

let dims st = Subgroup.dims st.sub
let num_wires st = Array.length (dims st)

let support_size st =
  match Subgroup.order_int st.sub with Some n -> n | None -> max_int

let norm _ = 1.0

(* chi_p(x) = prod_i omega_{d_i}^{p_i * x_i} *)
let character ~dims p x =
  let acc = ref Cx.one in
  Array.iteri
    (fun i d ->
      if p.(i) <> 0 && x.(i) <> 0 then begin
        let e = Numtheory.Arith.emod (p.(i) * x.(i)) d in
        if e <> 0 then acc := Cx.mul !acc (Cx.root_of_unity d e)
      end)
    dims;
  !acc

(* The canonical representative of the support: what every outcome and
   comparison reads, so a coset state draws what the reduced
   representative gives whatever point of the coset it was built from.
   A phased state's support is H itself. *)
let canonical_rep st =
  match st.shape with
  | Coset c -> Subgroup.reduce st.sub c
  | Phased _ -> Array.make (num_wires st) 0

let of_coset sub rep =
  let dims = Subgroup.dims sub in
  if Array.length rep <> Array.length dims then
    invalid_arg "Backend_symbolic: representative arity";
  let in_range = Array.for_all2 (fun v d -> v >= 0 && v < d) rep dims in
  let rep = if in_range then rep else Array.mapi (fun i v -> Numtheory.Arith.emod v dims.(i)) rep in
  { sub; shape = Coset rep }

let of_basis dims x =
  Array.iteri
    (fun i xi ->
      if xi < 0 || xi >= dims.(i) then invalid_arg "Backend_symbolic.of_basis: value out of range")
    x;
  { sub = Subgroup.trivial dims; shape = Coset x }

(* The amplitude at [x], given the canonical representative [rep]. *)
let amp_at_tuple st ~rep x =
  let dims = dims st in
  let diff = Array.init (Array.length dims) (fun i -> x.(i) - rep.(i)) in
  if not (Subgroup.mem st.sub diff) then Cx.zero
  else
    let inv_sqrt = exp (-.0.5 *. Subgroup.order_log2 st.sub *. log 2.0) in
    match st.shape with
    | Coset _ -> Cx.re inv_sqrt
    | Phased p -> Cx.scale inv_sqrt (character ~dims p x)

let amp_at st idx = amp_at_tuple st ~rep:(canonical_rep st) (Backend.decode (dims st) idx)

(* The points rep + h of the support, in the order of
   [Subgroup.elements]. *)
let support st ~rep =
  let dims = dims st in
  List.map
    (fun h -> Array.init (Array.length dims) (fun i -> (rep.(i) + h.(i)) mod dims.(i)))
    (Subgroup.elements st.sub)

let iter_nonzero st f =
  let dims = dims st and rep = canonical_rep st in
  let entries = List.map (fun x -> (Backend.encode dims x, x)) (support st ~rep) in
  let entries = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
  List.iter (fun (idx, x) -> f idx (amp_at_tuple st ~rep x)) entries

(* Materialise into the dense backend. *)
let demote st =
  Metrics.tick Symbolic_demotions;
  let dims = dims st in
  let amp =
    match st.shape with Coset _ -> fun _ -> Cx.one | Phased p -> character ~dims p
  in
  Backend_dense.of_support dims
    (List.rev_map (fun x -> (x, amp x)) (support st ~rep:(canonical_rep st)))

(* Negation in Z_d of an entry already in [0, d). *)
let neg_in_range dims v = Array.mapi (fun i x -> if x = 0 then 0 else dims.(i) - x) v

(* The closed-form rewrite of the whole-register DFT: the memoised
   annihilator, and the coset's representative or the phase, negated
   where the direction asks. *)
let fourier st ~inverse =
  let dual = Subgroup.dual st.sub in
  Metrics.tick Symbolic_rewrites;
  match st.shape with
  | Coset c -> { sub = dual; shape = Phased (if inverse then neg_in_range (dims st) c else c) }
  | Phased p -> { sub = dual; shape = Coset (if inverse then p else neg_in_range (dims st) p) }

let can_measure st ~wires =
  let n = num_wires st in
  let seen = Array.make n false in
  List.iter (fun w -> if w >= 0 && w < n then seen.(w) <- true) wires;
  Array.for_all Fun.id seen

(* A uniform point of the support: one uniform h in H, plus the
   canonical representative on a coset.  Both terms lie in [0, d), so
   one compare-and-subtract reduces the sum. *)
let draw rng st =
  match st.shape with
  | Phased _ -> Subgroup.sample rng st.sub
  | Coset c ->
      let c = Subgroup.reduce st.sub c in
      let h = Subgroup.sample rng st.sub in
      Array.mapi
        (fun i d ->
          let v = c.(i) + h.(i) in
          if v >= d then v - d else v)
        (dims st)

let measure rng st ~wires =
  if not (can_measure st ~wires) then
    invalid_arg
      "Backend_symbolic.measure: only full-register measurement is symbolic (State demotes \
       partial measurements)";
  let x = draw rng st in
  let outcome = Array.of_list (List.map (fun w -> x.(w)) wires) in
  (outcome, of_basis (dims st) x)

(* [measure ~wires:all] without the post-state: the same single draw,
   so the same outcome and RNG stream, but no basis state and hence no
   trivial-subgroup solve per round. *)
let measure_all rng st = draw rng st

let approx_equal ?(eps = 1e-9) a b =
  (* Representation-level comparison is subtle (a phase is only
     canonical modulo the annihilator), so compare the few amplitudes
     that can differ: same subgroup, same canonical representative,
     and equal amplitudes there and at each basis row's offset, which
     pins every character on the subgroup.  Used by tests on small
     states. *)
  Backend.dims_equal (dims a) (dims b)
  && Subgroup.equal a.sub b.sub
  &&
  let ra = canonical_rep a and rb = canonical_rep b in
  Backend.dims_equal ra rb
  &&
  let da = dims a in
  let probe = ra :: List.map (fun row -> Array.init (Array.length da) (fun i ->
      (ra.(i) + row.(i)) mod da.(i))) (Array.to_list (Subgroup.basis a.sub)) in
  List.for_all
    (fun x -> Cx.approx_equal ~eps (amp_at_tuple a ~rep:ra x) (amp_at_tuple b ~rep:rb x))
    probe
