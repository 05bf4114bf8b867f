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

   The backend API applies the DFT wire by wire, so the rewrite is
   deferred: wires are marked pending and the closed form fires when
   every wire has been transformed once in the same direction.  A
   partially transformed state supports nothing but further DFT marks;
   the State dispatcher demotes to the sparse backend (replaying the
   pending per-wire DFTs) if other operations are requested mid-sweep,
   capped at Backend.Caps.symbolic_materialise support. *)

module Subgroup = struct
  type t = {
    dims : int array;
    basis : Zm.t;
    order_log2 : float;
    order_int : int option;
    mutable dual_memo : t option;
        (* The annihilator is a property of H alone, shared by every
           state carrying this subgroup: one solve per sampler, not per
           sample. *)
  }

  let of_basis ~dims basis =
    {
      dims;
      basis;
      order_log2 = Zm.hnf_order_log2 ~dims basis;
      order_int = Zm.hnf_order_int ~dims basis;
      dual_memo = None;
    }

  let of_gens ~dims gens =
    Metrics.record_symbolic_solve ();
    of_basis ~dims (Zm.hnf_basis ~dims gens)

  let trivial dims = of_gens ~dims []
  let full dims = of_gens ~dims (List.init (Array.length dims) (fun i ->
      Array.init (Array.length dims) (fun j -> if i = j then 1 else 0)))

  let dims s = s.dims
  let basis s = s.basis
  let order_log2 s = s.order_log2
  let order_int s = s.order_int
  let mem s x = Zm.hnf_mem ~dims:s.dims s.basis x
  let reduce s x = Zm.hnf_reduce ~dims:s.dims s.basis x

  let sample rng s =
    Metrics.record_symbolic_sample ();
    Zm.hnf_sample rng ~dims:s.dims s.basis

  let elements s =
    (match s.order_int with
    | Some n when n <= Backend.Caps.symbolic_materialise -> ()
    | _ ->
        invalid_arg
          "Backend_symbolic: subgroup too large to materialise (Caps.symbolic_materialise)");
    Zm.hnf_elements ~dims:s.dims s.basis

  let equal a b = Backend.dims_equal a.dims b.dims && Zm.equal a.basis b.basis

  let dual s =
    match s.dual_memo with
    | Some d -> d
    | None ->
        Metrics.record_symbolic_solve ();
        let d = of_basis ~dims:s.dims (Zm.hnf_dual ~dims:s.dims s.basis) in
        d.dual_memo <- Some s;
        s.dual_memo <- Some d;
        d
end

module Wires = Set.Make (Int)

(* The wires DFT'd so far in the current sweep, all in one direction.
   States are values, so each mark builds a new sweep: a persistent set
   plus its size keeps that O(log r). *)
type sweep = { marked : Wires.t; count : int; inverse : bool }

type t = {
  sub : Subgroup.t;
  rep : int array;  (* canonical: Subgroup.reduce applied *)
  phase : int array;  (* p, componentwise in [0, dims.(i)) *)
  gphase : Cx.t;
  pending : sweep option;
}

let dims st = Subgroup.dims st.sub
let num_wires st = Array.length (dims st)

let support_size st =
  match Subgroup.order_int st.sub with Some n -> n | None -> max_int

let subgroup st = st.sub
let has_pending st = st.pending <> None
let norm _ = 1.0

(* chi_p(x) = prod_i omega_{d_i}^{p_i * x_i} *)
let character ~dims p x =
  let acc = ref Cx.one in
  Array.iteri
    (fun i d ->
      let e = Numtheory.Arith.emod (p.(i) * x.(i)) d in
      if e <> 0 then acc := Cx.mul !acc (Cx.root_of_unity d e))
    dims;
  !acc

let of_coset ?(phase = [||]) ?(gphase = Cx.one) sub rep =
  let dims = Subgroup.dims sub in
  let r = Array.length dims in
  if Array.length rep <> r then invalid_arg "Backend_symbolic: representative arity";
  let phase =
    if Array.length phase = 0 then Array.make r 0
    else if Array.length phase <> r then invalid_arg "Backend_symbolic: phase arity"
    else Array.init r (fun i -> Numtheory.Arith.emod phase.(i) dims.(i))
  in
  (* Canonicalising the representative absorbs a character value into
     the global phase: moving c to c' = c - h multiplies every
     amplitude by chi_p(c - c')... it does not — chi_p is evaluated at
     absolute x, so the stored rep only selects the coset.  Reduction
     is purely for equality of representations. *)
  { sub; rep = Subgroup.reduce sub rep; phase; gphase; pending = None }

let of_basis dims x =
  Array.iteri
    (fun i xi ->
      if xi < 0 || xi >= dims.(i) then invalid_arg "Backend_symbolic.of_basis: value out of range")
    x;
  of_coset (Subgroup.trivial dims) x

let create dims = of_basis dims (Array.make (Array.length dims) 0)
let uniform dims = of_coset (Subgroup.full dims) (Array.make (Array.length dims) 0)

let amp_at_tuple st x =
  if has_pending st then
    invalid_arg "Backend_symbolic: amplitude of a partially Fourier-transformed state";
  let dims = dims st in
  let diff = Array.init (Array.length dims) (fun i -> x.(i) - st.rep.(i)) in
  if not (Subgroup.mem st.sub diff) then Cx.zero
  else
    let inv_sqrt = exp (-.0.5 *. Subgroup.order_log2 st.sub *. log 2.0) in
    Cx.scale inv_sqrt (Cx.mul st.gphase (character ~dims st.phase x))

let amp_at st idx = amp_at_tuple st (Backend.decode (dims st) idx)

let iter_nonzero st f =
  if has_pending st then
    invalid_arg "Backend_symbolic: iterating a partially Fourier-transformed state";
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

(* Materialise into the sparse backend, replaying any pending per-wire
   DFTs (they commute across wires, so wire order is immaterial). *)
let demote st =
  Metrics.record_symbolic_demotion ();
  let base = { st with pending = None } in
  let dims = dims base in
  let entries = ref [] in
  let r = Array.length dims in
  List.iter
    (fun h ->
      let x = Array.init r (fun i -> (base.rep.(i) + h.(i)) mod dims.(i)) in
      entries := (x, Cx.mul base.gphase (character ~dims base.phase x)) :: !entries)
    (Subgroup.elements base.sub);
  let sp = Backend_sparse.of_support dims !entries in
  match st.pending with
  | None -> sp
  | Some { marked; inverse; _ } ->
      Wires.fold (fun wire acc -> Backend_sparse.apply_dft acc ~wire ~inverse) marked sp

let can_apply_dft st ~wire ~inverse =
  match st.pending with
  | None -> true
  | Some sw -> Bool.equal inverse sw.inverse && not (Wires.mem wire sw.marked)

(* The closed-form rewrite; fires when every wire has been marked. *)
let rewrite st ~inverse =
  let dims = dims st in
  let r = Array.length dims in
  let dual = Subgroup.dual st.sub in
  let c = st.rep and p = st.phase in
  Metrics.record_symbolic_rewrite ();
  let gphase = Cx.mul st.gphase (character ~dims p c) in
  if not inverse then
    (* F: support -p + H^perp, amplitude chi_c(y) *)
    of_coset ~phase:c ~gphase dual (Array.init r (fun i -> Numtheory.Arith.emod (-p.(i)) dims.(i)))
  else
    (* F^-1: support p + H^perp, amplitude chi_{-c}(y) *)
    of_coset
      ~phase:(Array.init r (fun i -> Numtheory.Arith.emod (-c.(i)) dims.(i)))
      ~gphase dual (Array.copy p)

let apply_dft ?plan:_ st ~wire ~inverse =
  let n = num_wires st in
  if wire < 0 || wire >= n then invalid_arg "Backend_symbolic.apply_dft: wire out of range";
  if not (can_apply_dft st ~wire ~inverse) then
    invalid_arg
      "Backend_symbolic: unsupported per-wire DFT pattern (demote to an amplitude backend)";
  (* [wire] is unmarked, so the sweep is complete once [n] wires are *)
  let marked, count =
    match st.pending with None -> (Wires.empty, 0) | Some sw -> (sw.marked, sw.count)
  in
  if count + 1 = n then rewrite { st with pending = None } ~inverse
  else { st with pending = Some { marked = Wires.add wire marked; count = count + 1; inverse } }

let tensor a b =
  if has_pending a || has_pending b then
    invalid_arg "Backend_symbolic.tensor: partially Fourier-transformed operand";
  let da = dims a and db = dims b in
  let ra = Array.length da and rb = Array.length db in
  let dims' = Array.append da db in
  let basis =
    Array.init (ra + rb) (fun i ->
        Array.init (ra + rb) (fun j ->
            if i < ra then (if j < ra then (Subgroup.basis a.sub).(i).(j) else 0)
            else if j < ra then 0
            else (Subgroup.basis b.sub).(i - ra).(j - ra)))
  in
  (* Block-diagonal stacking of two canonical HNF bases is itself
     canonical, so no re-normalisation pass is needed. *)
  let sub = Subgroup.of_basis ~dims:dims' basis in
  of_coset
    ~phase:(Array.append a.phase b.phase)
    ~gphase:(Cx.mul a.gphase b.gphase)
    sub (Array.append a.rep b.rep)

let can_measure st ~wires =
  (not (has_pending st))
  &&
  let n = num_wires st in
  let seen = Array.make n false in
  List.iter (fun w -> if w >= 0 && w < n then seen.(w) <- true) wires;
  Array.for_all Fun.id seen

(* A uniform point of the coset: rep + h for one uniform h in H. *)
let draw rng st =
  let h = Subgroup.sample rng st.sub in
  Array.mapi (fun i d -> (st.rep.(i) + h.(i)) mod d) (dims st)

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
let measure_all rng st =
  if has_pending st then
    invalid_arg "Backend_symbolic.measure_all: partially Fourier-transformed state";
  draw rng st

(* Coset recognition: adopt a sorted encoded-index segment iff it is
   exactly a coset x0 + H (which is how Coset_state's bucket tables
   arrive).  The diffs of the members against the first member are all
   of H, so their HNF closure has order |H| iff the set is a coset. *)
let of_indices_opt dims idxs =
  let count = Array.length idxs in
  let sorted_in_range =
    count > 0 && idxs.(0) >= 0
    && (let ok = ref true in
        for i = 1 to count - 1 do
          if idxs.(i) <= idxs.(i - 1) then ok := false
        done;
        !ok)
    && match Backend.total_of_opt dims with
       | Some total -> idxs.(count - 1) < total
       | None -> false
  in
  if (not sorted_in_range) || count > Backend.Caps.symbolic_materialise then None
  else begin
    let members = Array.map (fun idx -> Backend.decode dims idx) idxs in
    let rep = members.(0) in
    let r = Array.length dims in
    let diffs =
      Array.to_list
        (Array.map (fun m -> Array.init r (fun i -> m.(i) - rep.(i))) members)
    in
    Metrics.record_symbolic_solve ();
    let basis = Zm.hnf_basis ~dims diffs in
    let sub = Subgroup.of_basis ~dims basis in
    match Subgroup.order_int sub with
    | Some n when n = count -> Some (of_coset sub rep)
    | _ -> None
  end

let of_indices dims idxs =
  match of_indices_opt dims idxs with
  | Some st -> st
  | None -> invalid_arg "Backend_symbolic.of_indices: index set is not a coset"

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

let pp fmt st =
  let dims = dims st in
  Format.fprintf fmt "@[<v>symbolic coset state over [%s]@,  log2|H| = %.2f, rep = [%s]%s@]"
    (String.concat ";" (Array.to_list (Array.map string_of_int dims)))
    (Subgroup.order_log2 st.sub)
    (String.concat ";" (Array.to_list (Array.map string_of_int st.rep)))
    (if has_pending st then " (mid Fourier sweep)" else "")
