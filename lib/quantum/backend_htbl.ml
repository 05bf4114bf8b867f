open Linalg

(* The pre-segment sparse representation — a hashtable from basis index
   to boxed amplitude — retained verbatim as a measurement baseline and
   differential-test oracle for the sorted-segment {!Backend_sparse}.
   It is NOT wired into the {!State} dispatcher and deliberately does
   not touch the {!Metrics} ledger: the ledger describes production
   backends, and a yardstick must not perturb what it measures.

   Known (and intentional) deficiencies relative to Backend_sparse:
   serial throughout, one allocation per amplitude, and float
   reductions in hashtable iteration order — the exact costs bench E12
   quantifies. *)

type t = {
  dims : int array;
  total : int;
  str : int array;
  tbl : (int, Cx.t) Hashtbl.t;
}

let put tbl idx z = if Cx.abs z > Backend_sparse.prune_eps then Hashtbl.replace tbl idx z

let make_frame dims =
  let total = Backend.total_of dims in
  { dims = Array.copy dims; total; str = Backend.strides dims; tbl = Hashtbl.create 64 }

let create dims =
  let t = make_frame dims in
  Hashtbl.replace t.tbl 0 Cx.one;
  t

let of_basis dims x =
  let t = make_frame dims in
  Hashtbl.replace t.tbl (Backend.encode dims x) Cx.one;
  t

let norm2 t = Hashtbl.fold (fun _ z acc -> acc +. Cx.norm2 z) t.tbl 0.0
let norm t = sqrt (norm2 t)

let normalize t =
  let n = norm t in
  if n < Cvec.zero_norm_floor then invalid_arg "State: zero vector";
  if Float.abs (n -. 1.0) < Cvec.unit_norm_tol then t
  else begin
    let tbl = Hashtbl.create (Hashtbl.length t.tbl) in
    Hashtbl.iter (fun idx z -> Hashtbl.replace tbl idx (Cx.scale (1.0 /. n) z)) t.tbl;
    { t with tbl }
  end

let of_amplitudes dims v =
  let t = make_frame dims in
  if Cvec.dim v <> t.total then invalid_arg "State.of_amplitudes: dimension mismatch";
  Array.iteri (fun idx z -> put t.tbl idx z) v;
  normalize t

let prune t =
  let out = Hashtbl.create (Hashtbl.length t.tbl) in
  Hashtbl.iter (fun idx z -> put out idx z) t.tbl;
  { t with tbl = out }

let of_support dims entries =
  let t = make_frame dims in
  (match entries with [] -> invalid_arg "State.of_support: empty support" | _ :: _ -> ());
  List.iter
    (fun (x, a) ->
      let idx = Backend.encode dims x in
      let prev = Option.value ~default:Cx.zero (Hashtbl.find_opt t.tbl idx) in
      Hashtbl.replace t.tbl idx (Cx.add prev a))
    entries;
  prune (normalize t)

let dims t = Array.copy t.dims
let num_wires t = Array.length t.dims
let total_dim t = t.total
let support_size t = Hashtbl.length t.tbl

let amplitudes t =
  if t.total > Backend.dense_cap then
    invalid_arg "State.amplitudes: register too large to materialise densely";
  let v = Cvec.make t.total in
  Hashtbl.iter (fun idx z -> v.(idx) <- z) t.tbl;
  v

let amp_at t idx = Option.value ~default:Cx.zero (Hashtbl.find_opt t.tbl idx)
let iter_nonzero t f = Hashtbl.iter (fun idx z -> f idx z) t.tbl

let tensor a b =
  let out = make_frame (Array.append a.dims b.dims) in
  Hashtbl.iter
    (fun ia za ->
      Hashtbl.iter (fun ib zb -> put out.tbl ((ia * b.total) + ib) (Cx.mul za zb)) b.tbl)
    a.tbl;
  out

let uniform dims =
  let t = make_frame dims in
  if t.total > Backend.dense_cap then
    invalid_arg "State.uniform: support is the whole register; use the dense backend";
  let a = Cx.re (1.0 /. sqrt (float_of_int t.total)) in
  for idx = 0 to t.total - 1 do
    Hashtbl.replace t.tbl idx a
  done;
  t

let group_fibres t ~wires_arr ~sub_dims =
  let k = Array.length wires_arr in
  let sub_total = Array.fold_left ( * ) 1 sub_dims in
  let fibres : (int, Cvec.t) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun idx z ->
      let base = ref idx and s = ref 0 in
      for i = 0 to k - 1 do
        let w = wires_arr.(i) in
        let digit = idx / t.str.(w) mod t.dims.(w) in
        base := !base - (digit * t.str.(w));
        s := (!s * sub_dims.(i)) + digit
      done;
      let fibre =
        match Hashtbl.find_opt fibres !base with
        | Some f -> f
        | None ->
            let f = Cvec.make sub_total in
            Hashtbl.add fibres !base f;
            f
      in
      fibre.(!s) <- z)
    t.tbl;
  fibres

let sub_offsets ~wires_arr ~sub_dims ~str =
  let k = Array.length wires_arr in
  let sub_total = Array.fold_left ( * ) 1 sub_dims in
  Array.init sub_total (fun s ->
      let rem = ref s and off = ref 0 in
      for i = k - 1 downto 0 do
        off := !off + (!rem mod sub_dims.(i) * str.(wires_arr.(i)));
        rem := !rem / sub_dims.(i)
      done;
      !off)

let apply_wires t ~wires m =
  let n = Array.length t.dims in
  List.iter (fun w -> if w < 0 || w >= n then invalid_arg "State.apply_wires: bad wire") wires;
  let wires_arr = Array.of_list wires in
  let seen = Array.make n false in
  Array.iter
    (fun w ->
      if seen.(w) then invalid_arg "State.apply_wires: duplicate wire";
      seen.(w) <- true)
    wires_arr;
  let sub_dims = Array.map (fun w -> t.dims.(w)) wires_arr in
  let sub_total = Array.fold_left ( * ) 1 sub_dims in
  if Cmat.rows m <> sub_total || Cmat.cols m <> sub_total then
    invalid_arg "State.apply_wires: matrix dimension mismatch";
  let fibres = group_fibres t ~wires_arr ~sub_dims in
  let offsets = sub_offsets ~wires_arr ~sub_dims ~str:t.str in
  let out = Hashtbl.create (Hashtbl.length t.tbl) in
  Hashtbl.iter
    (fun base fibre ->
      let transformed = Cmat.apply m fibre in
      for s = 0 to sub_total - 1 do
        put out (base + offsets.(s)) transformed.(s)
      done)
    fibres;
  { t with tbl = out }

let apply_dft ?plan:_ t ~wire ~inverse =
  let d = t.dims.(wire) in
  let stride = t.str.(wire) in
  let fibres = group_fibres t ~wires_arr:[| wire |] ~sub_dims:[| d |] in
  let out = Hashtbl.create (Hashtbl.length t.tbl) in
  Hashtbl.iter
    (fun base fibre ->
      Fft.dft_any ~inverse fibre;
      for k = 0 to d - 1 do
        put out (base + (k * stride)) fibre.(k)
      done)
    fibres;
  { t with tbl = out }

let apply_basis_map t f =
  let out = Hashtbl.create (Hashtbl.length t.tbl) in
  Hashtbl.iter
    (fun idx z ->
      let y = f (Backend.decode t.dims idx) in
      let j = Backend.encode t.dims y in
      if Hashtbl.mem out j then invalid_arg "State.apply_basis_map: not a bijection";
      Hashtbl.replace out j z)
    t.tbl;
  { t with tbl = out }

let apply_oracle_add t ~in_wires ~out_wire ~f =
  let d = t.dims.(out_wire) in
  apply_basis_map t (fun x ->
      let input = Array.of_list (List.map (fun w -> x.(w)) in_wires) in
      let v = f input in
      if v < 0 || v >= d then invalid_arg "State.apply_oracle_add: oracle value out of range";
      let y = Array.copy x in
      y.(out_wire) <- (x.(out_wire) + v) mod d;
      y)

let digits_of t ~wires idx = List.map (fun w -> idx / t.str.(w) mod t.dims.(w)) wires

let probabilities t ~wires =
  let sub_dims = Array.of_list (List.map (fun w -> t.dims.(w)) wires) in
  let sub_total = Backend.total_of sub_dims in
  if sub_total > Backend.dense_cap then
    invalid_arg "State.probabilities: outcome space too large to materialise densely";
  let probs = Array.make sub_total 0.0 in
  Hashtbl.iter
    (fun idx z ->
      let o = Backend.encode sub_dims (Array.of_list (digits_of t ~wires idx)) in
      probs.(o) <- probs.(o) +. Cx.norm2 z)
    t.tbl;
  probs

let measure rng t ~wires =
  let w = norm2 t in
  let r = Random.State.float rng w in
  let acc = ref 0.0 in
  let chosen = ref None in
  let last_nonzero = ref None in
  (try
     Hashtbl.iter
       (fun idx z ->
         let p = Cx.norm2 z in
         if p > 0.0 then last_nonzero := Some idx;
         acc := !acc +. p;
         if r < !acc then begin
           chosen := Some idx;
           raise Exit
         end)
       t.tbl
   with Exit -> ());
  let chosen =
    match (!chosen, !last_nonzero) with
    | Some idx, _ -> idx
    | None, Some idx -> idx
    | None, None -> invalid_arg "State.measure: zero vector"
  in
  let wires_arr = Array.of_list wires in
  let k = Array.length wires_arr in
  let outcome = Array.of_list (digits_of t ~wires chosen) in
  let matches idx =
    let ok = ref true in
    for i = 0 to k - 1 do
      let w = wires_arr.(i) in
      if idx / t.str.(w) mod t.dims.(w) <> outcome.(i) then ok := false
    done;
    !ok
  in
  let out = Hashtbl.create 64 in
  Hashtbl.iter (fun idx z -> if matches idx then Hashtbl.replace out idx z) t.tbl;
  (outcome, normalize { t with tbl = out })

let approx_equal ?(eps = 1e-9) a b =
  Backend.dims_equal a.dims b.dims
  && begin
       let ok = ref true in
       Hashtbl.iter (fun idx z -> if not (Cx.approx_equal ~eps z (amp_at b idx)) then ok := false) a.tbl;
       Hashtbl.iter (fun idx z -> if not (Cx.approx_equal ~eps z (amp_at a idx)) then ok := false) b.tbl;
       !ok
     end
