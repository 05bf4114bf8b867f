open Linalg
module Zm = Numtheory.Zmatrix

(* Symbolic coset-state backend.

   A state is not an amplitude array but the closed-form description

     |psi> = gphase / sqrt|H| * sum_{x in c + H} chi_p(x) |x>

   over A = Z_{d_0} x ... x Z_{d_{r-1}}: a subgroup H (canonical HNF
   basis, see Zmatrix), a coset representative c, a character vector p
   with chi_p(x) = prod_i omega_{d_i}^{p_i x_i}, and a unit global
   phase.  Every state the paper's samplers prepare has this shape, and
   the shape is closed under the full-register Abelian DFT:

     F |psi>  =  gphase * chi_c(p) / sqrt|H^perp|
                   * sum_{y in -p + H^perp} chi_c(y) |y>

   (forward transform, omega^{+xy} convention; the inverse sends
   (H, c, p) to (H^perp, reduce(p), -c) with the same phase factor).
   So a Fourier pass is one subgroup-annihilator solve and an O(r)
   relabel — nothing scales with |H|, |A| or the support, and no
   total-dimension integer is ever formed.

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

type t = {
  sub : Subgroup.t;
  rep : int array;  (* canonical: Subgroup.reduce applied *)
  phase : int array;  (* p, componentwise in [0, dims.(i)) *)
  gphase : Cx.t;
}

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

let of_coset sub rep =
  let r = Array.length (Subgroup.dims sub) in
  if Array.length rep <> r then invalid_arg "Backend_symbolic: representative arity";
  (* chi_p is evaluated at absolute x, so the stored rep only selects
     the coset: reducing it is purely for equality of representations. *)
  { sub; rep = Subgroup.reduce sub rep; phase = Array.make r 0; gphase = Cx.one }

let of_basis dims x =
  Array.iteri
    (fun i xi ->
      if xi < 0 || xi >= dims.(i) then invalid_arg "Backend_symbolic.of_basis: value out of range")
    x;
  of_coset (Subgroup.trivial dims) x

let amp_at_tuple st x =
  let dims = dims st in
  let diff = Array.init (Array.length dims) (fun i -> x.(i) - st.rep.(i)) in
  if not (Subgroup.mem st.sub diff) then Cx.zero
  else
    let inv_sqrt = exp (-.0.5 *. Subgroup.order_log2 st.sub *. log 2.0) in
    Cx.scale inv_sqrt (Cx.mul st.gphase (character ~dims st.phase x))

let amp_at st idx = amp_at_tuple st (Backend.decode (dims st) idx)

let iter_nonzero st f =
  let dims = dims st in
  let entries =
    List.map
      (fun h ->
        let x = Array.init (Array.length dims) (fun i -> (st.rep.(i) + h.(i)) mod dims.(i)) in
        (Backend.encode dims x, x))
      (Subgroup.elements st.sub)
  in
  let entries = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
  List.iter (fun (idx, x) -> f idx (amp_at_tuple st x)) entries

(* Materialise into the dense backend. *)
let demote st =
  Metrics.tick Symbolic_demotions;
  let dims = dims st in
  let r = Array.length dims in
  let entries =
    List.rev_map
      (fun h ->
        let x = Array.init r (fun i -> (st.rep.(i) + h.(i)) mod dims.(i)) in
        (x, Cx.mul st.gphase (character ~dims st.phase x)))
      (Subgroup.elements st.sub)
  in
  Backend_dense.of_support dims entries

(* Negation in Z_d of an entry already in [0, d). *)
let neg_in_range dims v = Array.mapi (fun i x -> if x = 0 then 0 else dims.(i) - x) v

(* The closed-form rewrite of the whole-register DFT.  [rep] and
   [phase] are already in range, so the relabel needs no reduction
   beyond the new representative's. *)
let fourier st ~inverse =
  let dims = dims st in
  let dual = Subgroup.dual st.sub in
  let c = st.rep and p = st.phase in
  Metrics.tick Symbolic_rewrites;
  let gphase = Cx.mul st.gphase (character ~dims p c) in
  if not inverse then
    (* F: support -p + H^perp, amplitude chi_c(y) *)
    { sub = dual; rep = Subgroup.reduce dual (neg_in_range dims p); phase = c; gphase }
  else
    (* F^-1: support p + H^perp, amplitude chi_{-c}(y) *)
    { sub = dual; rep = Subgroup.reduce dual p; phase = neg_in_range dims c; gphase }

let can_measure st ~wires =
  let n = num_wires st in
  let seen = Array.make n false in
  List.iter (fun w -> if w >= 0 && w < n then seen.(w) <- true) wires;
  Array.for_all Fun.id seen

(* A uniform point of the coset: rep + h for one uniform h in H.  Both
   terms lie in [0, d), so one compare-and-subtract reduces the sum. *)
let draw rng st =
  let h = Subgroup.sample rng st.sub in
  Array.mapi
    (fun i d ->
      let v = st.rep.(i) + h.(i) in
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
  (* Representation-level comparison up to global phase is subtle
     (phase vectors are only canonical modulo the annihilator), so
     compare the few amplitudes that can differ: same coset, same
     subgroup, and equal amplitudes at the generators' offsets.  Used
     by tests on small states; large states compare via Subgroup.equal
     and the phase parameters directly. *)
  Backend.dims_equal (dims a) (dims b)
  && Subgroup.equal a.sub b.sub
  && Backend.dims_equal a.rep b.rep
  &&
  let da = dims a in
  let probe = a.rep :: List.map (fun row -> Array.init (Array.length da) (fun i ->
      (a.rep.(i) + row.(i)) mod da.(i))) (Array.to_list (Subgroup.basis a.sub)) in
  List.for_all (fun x -> Cx.approx_equal ~eps (amp_at_tuple a x) (amp_at_tuple b x)) probe
