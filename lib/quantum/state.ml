open Linalg

type t =
  | Dense of Backend_dense.t
  | Sparse of Backend_sparse.t
  | Symbolic of Backend_symbolic.t

let backend = function
  | Dense _ -> Backend.Dense
  | Sparse _ -> Backend.Sparse
  | Symbolic _ -> Backend.Symbolic

let encode = Backend.encode
let decode = Backend.decode

(* The general constructors build dense: it is the only backend that
   runs every operation. *)
let dense d =
  Metrics.tick States_created;
  Dense d

let create dims = dense (Backend_dense.create dims)
let of_basis dims x = dense (Backend_dense.of_basis dims x)
let of_amplitudes dims v = dense (Backend_dense.of_amplitudes dims v)
let uniform dims = dense (Backend_dense.uniform dims)

(* Oracle-route input is a sorted index segment, never subgroup
   structure: it lands on dense only when asked, and on sparse under
   every other choice. *)
let of_indices ?backend dims idxs =
  Metrics.tick States_created;
  match backend with
  | Some Backend.Dense -> Dense (Backend_dense.of_indices dims idxs)
  | Some (Backend.Sparse | Backend.Symbolic) | None -> Sparse (Backend_sparse.of_indices dims idxs)

(* The index segment of the coset [rep + H], ascending with no sort.
   The HNF basis is upper triangular with h_ii | d_i, so once wires
   0..i-1 are fixed, wire i takes the values (v mod h_ii) + k h_ii,
   k < d_i / h_ii, where v is its current offset; stepping row i from
   coefficient -(v div h_ii) visits them in increasing order and
   shifts only later wires.  Wire 0 is most significant, so the
   depth-first walk emits ascending indices. *)
let coset_indices sub ~rep =
  let module Sub = Backend_symbolic.Subgroup in
  let n =
    match Sub.order_int sub with
    | Some n when n <= Backend.Caps.coset_sparse -> n
    | _ -> invalid_arg "State.of_coset: coset too large to enumerate (Caps.coset_sparse)"
  in
  let dims = Sub.dims sub and basis = Sub.basis sub in
  let r = Array.length dims and str = Backend.strides dims in
  let idxs = Array.make n 0 and k = ref 0 in
  let x = Array.copy rep in
  let shift row i c =
    for j = i + 1 to r - 1 do
      x.(j) <- x.(j) + (c * row.(j))
    done
  in
  let rec go i prefix =
    if i = r then begin
      idxs.(!k) <- prefix;
      incr k
    end
    else begin
      let row = basis.(i) in
      let h = row.(i) in
      let lo = Numtheory.Arith.emod x.(i) h in
      let q = (x.(i) - lo) / h and count = dims.(i) / h in
      shift row i (-q);
      for c = 0 to count - 1 do
        go (i + 1) (prefix + ((lo + (c * h)) * str.(i)));
        shift row i 1
      done;
      shift row i (q - count)
    end
  in
  go 0 0;
  idxs

let of_coset ?(backend = Backend.Symbolic) sub ~rep =
  Metrics.tick States_created;
  match backend with
  | Backend.Dense ->
      Dense (Backend_dense.of_indices (Backend_symbolic.Subgroup.dims sub) (coset_indices sub ~rep))
  | Backend.Sparse ->
      Sparse (Backend_sparse.of_indices (Backend_symbolic.Subgroup.dims sub) (coset_indices sub ~rep))
  | Backend.Symbolic -> Symbolic (Backend_symbolic.of_coset sub rep)

let dims = function
  | Dense d -> Backend_dense.dims d
  | Sparse s -> Backend_sparse.dims s
  | Symbolic s -> Backend_symbolic.dims s

let num_wires = function
  | Dense d -> Backend_dense.num_wires d
  | Sparse s -> Backend_sparse.num_wires s
  | Symbolic s -> Backend_symbolic.num_wires s

let support_size = function
  | Dense d -> Backend_dense.support_size d
  | Sparse s -> Backend_sparse.support_size s
  | Symbolic s -> Backend_symbolic.support_size s

(* Amplitude-level operations run on the dense backend alone.  A dense
   operand is used as is; a symbolic one is materialised into dense
   (ledger: symbolic_demotions; capped at Caps.symbolic_materialise —
   the symbolic fast path of_coset / Qft.forward / measure_all never
   demotes); a sparse one is refused, since the sparse backend runs
   only the Fourier-sampling pipeline. *)
let dense_operand op = function
  | Dense d -> d
  | Symbolic s -> Backend_symbolic.demote s
  | Sparse _ ->
      invalid_arg
        (Printf.sprintf "State.%s: sparse states run only of_indices, fourier and measure_all" op)

let amplitudes = function
  | Dense d -> Backend_dense.amplitudes d
  | Sparse s -> Backend_sparse.amplitudes s
  | Symbolic s -> Backend_dense.amplitudes (Backend_symbolic.demote s)

let amp_at t idx =
  match t with
  | Dense d -> Backend_dense.amp_at d idx
  | Sparse s -> Backend_sparse.amp_at s idx
  | Symbolic s -> Backend_symbolic.amp_at s idx

let iter_nonzero t f =
  match t with
  | Dense d -> Backend_dense.iter_nonzero d f
  | Sparse s -> Backend_sparse.iter_nonzero s f
  | Symbolic s -> Backend_symbolic.iter_nonzero s f

let tensor a b =
  let a = dense_operand "tensor" a in
  let b = dense_operand "tensor" b in
  dense (Backend_dense.tensor a b)

(* Per-call ledger ticks live here, in the dispatcher; the backends
   record only the work statistics (fibres, support, pruning,
   rewrites) on which the representations differ. *)

let gate op t ~wires m =
  let d = dense_operand op t in
  Metrics.tick Gate_apps;
  Dense (Backend_dense.apply_wires d ~wires m)

let apply_wires t ~wires m = gate "apply_wires" t ~wires m
let apply_wire t ~wire m = gate "apply_wire" t ~wires:[ wire ] m

(* Whether [wires] lists each wire of an [n]-wire register exactly
   once: O(n), no sort. *)
let permutes_register n wires =
  let seen = Bytes.make n '\000' in
  let rec go k = function
    | [] -> k = n
    | w :: rest ->
        w >= 0 && w < n
        && Bytes.get seen w = '\000'
        && begin
             Bytes.set seen w '\001';
             go (k + 1) rest
           end
  in
  go 0 wires

(* One whole sweep: [dft_apps] grows by the number of listed wires on
   every backend, in one atomic add.  A symbolic state swept over a
   permutation of its wires takes the closed-form rewrite; any other
   sweep demotes it once and runs the dense sweep. *)
let fourier ?plans t ~wires ~inverse =
  Metrics.add Dft_apps (List.length wires);
  match (t, wires) with
  | _, [] -> t
  | Dense d, _ -> Dense (Backend_dense.fourier ?plans d ~wires ~inverse)
  | Sparse s, _ ->
      Sparse
        (List.fold_left
           (fun s wire ->
             let plan = Option.map (fun p -> p.(wire)) plans in
             Backend_sparse.apply_dft ?plan s ~wire ~inverse)
           s wires)
  | Symbolic s, _ when permutes_register (Backend_symbolic.num_wires s) wires ->
      Symbolic (Backend_symbolic.fourier s ~inverse)
  | Symbolic s, _ -> Dense (Backend_dense.fourier ?plans (Backend_symbolic.demote s) ~wires ~inverse)

let apply_basis_map t f =
  let d = dense_operand "apply_basis_map" t in
  Metrics.tick Basis_maps;
  Dense (Backend_dense.apply_basis_map d f)

let apply_oracle_add t ~in_wires ~out_wire ~f =
  let d = dense_operand "apply_oracle_add" t in
  Metrics.tick Oracle_ops;
  Dense (Backend_dense.apply_oracle_add d ~in_wires ~out_wire ~f)

let probabilities t ~wires = Backend_dense.probabilities (dense_operand "probabilities" t) ~wires

let measure rng t ~wires =
  match t with
  | Symbolic s when Backend_symbolic.can_measure s ~wires ->
      Metrics.tick Measurements;
      let outcome, post = Backend_symbolic.measure rng s ~wires in
      (outcome, Symbolic post)
  | _ ->
      let d = dense_operand "measure" t in
      Metrics.tick Measurements;
      let outcome, post = Backend_dense.measure rng d ~wires in
      (outcome, Dense post)

let measure_all rng t =
  Metrics.tick Measurements;
  match t with
  | Dense d -> Backend_dense.measure_all rng d
  | Sparse s -> Backend_sparse.measure_all rng s
  | Symbolic s -> Backend_symbolic.measure_all rng s

let norm = function
  | Dense d -> Backend_dense.norm d
  | Sparse s -> Backend_sparse.norm s
  | Symbolic s -> Backend_symbolic.norm s

let approx_equal ?(eps = 1e-9) a b =
  Backend.dims_equal (dims a) (dims b)
  &&
  match (a, b) with
  | Dense x, Dense y -> Backend_dense.approx_equal ~eps x y
  | Sparse x, Sparse y -> Backend_sparse.approx_equal ~eps x y
  | Symbolic x, Symbolic y -> Backend_symbolic.approx_equal ~eps x y
  | _ ->
      (* Cross-backend: compare over the union of supports.  The dense
         side iterates its nonzeros (it is under the cap by
         construction), so this stays linear in materialised data. *)
      let ok = ref true in
      iter_nonzero a (fun i z -> if not (Cx.approx_equal ~eps z (amp_at b i)) then ok := false);
      iter_nonzero b (fun i z -> if not (Cx.approx_equal ~eps z (amp_at a i)) then ok := false);
      !ok
