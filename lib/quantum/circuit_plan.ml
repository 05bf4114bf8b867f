open Linalg

type gate = Cmat.t * int list

type step =
  | Fused of { wires : int list; mat : Cmat.t; count : int }
  | Diag of { gates : (int list * Cx.t array) list }
  | Perm of { wires : int list; perm : int array; count : int }

type t = { num_qubits : int; steps : step list; source_gates : int }

let classify_eps = 1e-12
let perm_max_wires = 8

(* ------------------------------------------------------------------ *)
(* Gate classification                                                *)
(* ------------------------------------------------------------------ *)

let is_zero z = Float.abs z.Complex.re <= classify_eps && Float.abs z.Complex.im <= classify_eps

(* Diagonal within classify_eps; any pair of diagonal matrices commutes
   exactly, which is what licenses merging a whole run into one sweep. *)
let diag_of m =
  let dim = Cmat.rows m in
  let ok = ref true in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      if i <> j && not (is_zero m.(i).(j)) then ok := false
    done
  done;
  if !ok then Some (Array.init dim (fun i -> m.(i).(i))) else None

(* 0/1 permutation matrix: exactly one ~1 entry per column, the rest
   ~0.  [p.(j)] is the row carrying column [j]'s 1 — the amplitude at
   sub-index [j] moves to [p.(j)]. *)
let perm_of m =
  let dim = Cmat.rows m in
  let p = Array.make dim (-1) in
  let ok = ref true in
  for j = 0 to dim - 1 do
    for i = 0 to dim - 1 do
      let z = m.(i).(j) in
      if
        Float.abs (z.Complex.re -. 1.0) <= classify_eps && Float.abs z.Complex.im <= classify_eps
      then if p.(j) = -1 then p.(j) <- i else ok := false
      else if not (is_zero z) then ok := false
    done;
    if p.(j) = -1 then ok := false
  done;
  if !ok then Some p else None

type klass = KDiag of Cx.t array | KPerm of int array | KDense

let classify (m, wires) =
  match diag_of m with
  | Some d when List.length wires <= 2 -> KDiag d
  | _ -> ( match perm_of m with Some p -> KPerm p | None -> KDense)

(* ------------------------------------------------------------------ *)
(* Compilation: greedy fusion of adjacent compatible gates            *)
(* ------------------------------------------------------------------ *)

(* Lift gate [g]'s permutation [p] (over its own wire list) to the
   sorted union wire list and compose it after [total].  Sub-indices
   put the first listed wire in the most significant position, matching
   the gate convention everywhere else. *)
let compose_perm ~union ~total (p, gwires) =
  let k = List.length union in
  let pos = Hashtbl.create 8 in
  List.iteri (fun i w -> Hashtbl.replace pos w i) union;
  let gk = List.length gwires in
  let gpos = Array.of_list (List.map (Hashtbl.find pos) gwires) in
  let lift s =
    let sg = ref 0 in
    for i = 0 to gk - 1 do
      sg := (!sg lsl 1) lor ((s lsr (k - 1 - gpos.(i))) land 1)
    done;
    let dg = p.(!sg) in
    let s' = ref s in
    for i = 0 to gk - 1 do
      let bit = k - 1 - gpos.(i) in
      let v = (dg lsr (gk - 1 - i)) land 1 in
      s' := !s' land lnot (1 lsl bit) lor (v lsl bit)
    done;
    !s'
  in
  Array.map lift total

type seg =
  | SNone
  | SDense of int list * Cmat.t list (* wires, matrices latest-first *)
  | SDiag of (int list * Cx.t array) list (* latest-first *)
  | SPerm of int list * (int array * int list) list (* sorted union, gates latest-first *)

let flush seg steps =
  match seg with
  | SNone -> steps
  | SDense (wires, mats) ->
      let mat =
        match mats with
        | [] -> assert false
        | last :: earlier -> List.fold_left (fun acc m -> Cmat.mul acc m) last earlier
      in
      Fused { wires; mat; count = List.length mats } :: steps
  | SDiag gates -> Diag { gates = List.rev gates } :: steps
  | SPerm (union, gates) ->
      let k = List.length union in
      let total = Array.init (1 lsl k) (fun s -> s) in
      let perm =
        List.fold_left (fun acc g -> compose_perm ~union ~total:acc g) total (List.rev gates)
      in
      Perm { wires = union; perm; count = List.length gates } :: steps

let sorted_union a b = List.sort_uniq Int.compare (a @ b)

let compile ~num_qubits gates =
  let steps, seg =
    List.fold_left
      (fun (steps, seg) ((m, wires) as g) ->
        match (classify g, seg) with
        | KDiag d, SDiag acc -> (steps, SDiag ((wires, d) :: acc))
        | KDiag d, _ -> (flush seg steps, SDiag [ (wires, d) ])
        | KPerm p, SPerm (union, acc)
          when List.length (sorted_union union wires) <= perm_max_wires ->
            (steps, SPerm (sorted_union union wires, (p, wires) :: acc))
        | KPerm p, _ -> (flush seg steps, SPerm (List.sort Int.compare wires, [ (p, wires) ]))
        | KDense, SDense (w, acc) when List.equal Int.equal w wires ->
            (steps, SDense (w, m :: acc))
        | KDense, _ -> (flush seg steps, SDense (wires, [ m ])))
      ([], SNone) gates
  in
  let steps = List.rev (flush seg steps) in
  Metrics.record_plan_compiled ();
  { num_qubits; steps; source_gates = List.length gates }

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

(* Bit position of wire [w] in an [n]-qubit register: big-endian, wire
   0 is the most significant (Backend.strides with all dims = 2). *)
let bit_of n w = n - 1 - w

(* Insert a zero bit at position [t]: [r] ranges over indices with bit
   [t] removed. *)
let[@inline] insert_zero r t = ((r lsr t) lsl (t + 1)) lor (r land ((1 lsl t) - 1))

(* Expand a rest index into a fibre base index by inserting zero bits
   at the given positions, which must be sorted ascending. *)
let base_of_rest bits_asc r = Array.fold_left insert_zero r bits_asc

(* Fibre offsets of every sub-assignment of the listed wires (first
   listed wire most significant), as in Backend_dense.apply_wires. *)
let sub_offsets n wires =
  let k = List.length wires in
  let bits = Array.of_list (List.map (bit_of n) wires) in
  Array.init (1 lsl k) (fun s ->
      let off = ref 0 in
      for i = 0 to k - 1 do
        off := !off lor (((s lsr (k - 1 - i)) land 1) lsl bits.(i))
      done;
      !off)

let mat_table m =
  let dim = Cmat.rows m in
  let t = Array.make (2 * dim * dim) 0.0 in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      let z = m.(i).(j) in
      t.((2 * ((i * dim) + j))) <- z.Complex.re;
      t.((2 * ((i * dim) + j)) + 1) <- z.Complex.im
    done
  done;
  t

let sorted_bits n wires =
  let bits = Array.of_list (List.map (bit_of n) wires) in
  Array.sort Int.compare bits;
  bits

(* The kernels below index the planes unchecked and [t] is a public
   record, so every step is validated once before any step runs. *)
let validate n steps =
  let fail msg = invalid_arg ("Circuit_plan.run_planes: " ^ msg) in
  let dim_of wires =
    if wires = [] then fail "empty wire list";
    List.iter (fun w -> if w < 0 || w >= n then fail "wire out of range") wires;
    if List.length (List.sort_uniq Int.compare wires) <> List.length wires then
      fail "duplicate wires";
    1 lsl List.length wires
  in
  List.iter
    (function
      | Fused { wires; mat; _ } ->
          let dim = dim_of wires in
          if
            Cmat.rows mat <> dim
            || Array.exists (fun row -> not (Int.equal (Array.length row) dim)) mat
          then fail "matrix dimension does not match wire count"
      | Diag { gates } ->
          List.iter
            (fun (wires, d) ->
              let dim = dim_of wires in
              if dim > 4 then fail "diagonal factor on more than 2 wires";
              if Array.length d <> dim then fail "diagonal table length does not match wire count")
            gates
      | Perm { wires; perm; _ } ->
          let dim = dim_of wires in
          if Array.length perm <> dim then fail "permutation length does not match wire count";
          if Array.exists (fun p -> p < 0 || p >= dim) perm then
            fail "permutation entry out of range")
    steps

(* In-place 2x2 apply on rest indices [lo, hi) of [0, 2^n / 2); [m] is
   the gate row-major as 8 floats [re00; im00; re01; im01; ...]. *)
let apply1 (re : float array) (im : float array) (m : float array) ~bit lo hi =
  let s = 1 lsl bit in
  let ar = Array.unsafe_get m 0 and ai = Array.unsafe_get m 1 in
  let br = Array.unsafe_get m 2 and bi = Array.unsafe_get m 3 in
  let cr = Array.unsafe_get m 4 and ci = Array.unsafe_get m 5 in
  let dr = Array.unsafe_get m 6 and di = Array.unsafe_get m 7 in
  for r = lo to hi - 1 do
    let i0 = insert_zero r bit in
    let i1 = i0 + s in
    let x0r = Array.unsafe_get re i0 and x0i = Array.unsafe_get im i0 in
    let x1r = Array.unsafe_get re i1 and x1i = Array.unsafe_get im i1 in
    Array.unsafe_set re i0 ((ar *. x0r) -. (ai *. x0i) +. (br *. x1r) -. (bi *. x1i));
    Array.unsafe_set im i0 ((ar *. x0i) +. (ai *. x0r) +. (br *. x1i) +. (bi *. x1r));
    Array.unsafe_set re i1 ((cr *. x0r) -. (ci *. x0i) +. (dr *. x1r) -. (di *. x1i));
    Array.unsafe_set im i1 ((cr *. x0i) +. (ci *. x0r) +. (dr *. x1i) +. (di *. x1r))
  done

(* In-place 4x4 apply on rest indices [lo, hi) of [0, 2^n / 4).  Gate
   sub-index [s = 2 x_a + x_b], [bit_a] being the bit of the gate's
   most significant wire; [m] is the gate row-major as 32 floats.
   Fully unrolled, and the table is read inside the loop: bound to 32
   locals its entries spill, and a nested loop over refs is ~2x
   slower. *)
let apply2 (re : float array) (im : float array) (m : float array) ~bit_a ~bit_b lo hi =
  let low = Int.min bit_a bit_b and high = Int.max bit_a bit_b in
  let sa = 1 lsl bit_a and sb = 1 lsl bit_b in
  for r = lo to hi - 1 do
    let i0 = insert_zero (insert_zero r low) high in
    let i1 = i0 + sb and i2 = i0 + sa in
    let i3 = i2 + sb in
    let x0r = Array.unsafe_get re i0 and x0i = Array.unsafe_get im i0 in
    let x1r = Array.unsafe_get re i1 and x1i = Array.unsafe_get im i1 in
    let x2r = Array.unsafe_get re i2 and x2i = Array.unsafe_get im i2 in
    let x3r = Array.unsafe_get re i3 and x3i = Array.unsafe_get im i3 in
    Array.unsafe_set re i0
      ((Array.unsafe_get m 0 *. x0r) -. (Array.unsafe_get m 1 *. x0i)
      +. (Array.unsafe_get m 2 *. x1r) -. (Array.unsafe_get m 3 *. x1i)
      +. (Array.unsafe_get m 4 *. x2r) -. (Array.unsafe_get m 5 *. x2i)
      +. (Array.unsafe_get m 6 *. x3r) -. (Array.unsafe_get m 7 *. x3i));
    Array.unsafe_set im i0
      ((Array.unsafe_get m 0 *. x0i) +. (Array.unsafe_get m 1 *. x0r)
      +. (Array.unsafe_get m 2 *. x1i) +. (Array.unsafe_get m 3 *. x1r)
      +. (Array.unsafe_get m 4 *. x2i) +. (Array.unsafe_get m 5 *. x2r)
      +. (Array.unsafe_get m 6 *. x3i) +. (Array.unsafe_get m 7 *. x3r));
    Array.unsafe_set re i1
      ((Array.unsafe_get m 8 *. x0r) -. (Array.unsafe_get m 9 *. x0i)
      +. (Array.unsafe_get m 10 *. x1r) -. (Array.unsafe_get m 11 *. x1i)
      +. (Array.unsafe_get m 12 *. x2r) -. (Array.unsafe_get m 13 *. x2i)
      +. (Array.unsafe_get m 14 *. x3r) -. (Array.unsafe_get m 15 *. x3i));
    Array.unsafe_set im i1
      ((Array.unsafe_get m 8 *. x0i) +. (Array.unsafe_get m 9 *. x0r)
      +. (Array.unsafe_get m 10 *. x1i) +. (Array.unsafe_get m 11 *. x1r)
      +. (Array.unsafe_get m 12 *. x2i) +. (Array.unsafe_get m 13 *. x2r)
      +. (Array.unsafe_get m 14 *. x3i) +. (Array.unsafe_get m 15 *. x3r));
    Array.unsafe_set re i2
      ((Array.unsafe_get m 16 *. x0r) -. (Array.unsafe_get m 17 *. x0i)
      +. (Array.unsafe_get m 18 *. x1r) -. (Array.unsafe_get m 19 *. x1i)
      +. (Array.unsafe_get m 20 *. x2r) -. (Array.unsafe_get m 21 *. x2i)
      +. (Array.unsafe_get m 22 *. x3r) -. (Array.unsafe_get m 23 *. x3i));
    Array.unsafe_set im i2
      ((Array.unsafe_get m 16 *. x0i) +. (Array.unsafe_get m 17 *. x0r)
      +. (Array.unsafe_get m 18 *. x1i) +. (Array.unsafe_get m 19 *. x1r)
      +. (Array.unsafe_get m 20 *. x2i) +. (Array.unsafe_get m 21 *. x2r)
      +. (Array.unsafe_get m 22 *. x3i) +. (Array.unsafe_get m 23 *. x3r));
    Array.unsafe_set re i3
      ((Array.unsafe_get m 24 *. x0r) -. (Array.unsafe_get m 25 *. x0i)
      +. (Array.unsafe_get m 26 *. x1r) -. (Array.unsafe_get m 27 *. x1i)
      +. (Array.unsafe_get m 28 *. x2r) -. (Array.unsafe_get m 29 *. x2i)
      +. (Array.unsafe_get m 30 *. x3r) -. (Array.unsafe_get m 31 *. x3i));
    Array.unsafe_set im i3
      ((Array.unsafe_get m 24 *. x0i) +. (Array.unsafe_get m 25 *. x0r)
      +. (Array.unsafe_get m 26 *. x1i) +. (Array.unsafe_get m 27 *. x1r)
      +. (Array.unsafe_get m 28 *. x2i) +. (Array.unsafe_get m 29 *. x2r)
      +. (Array.unsafe_get m 30 *. x3i) +. (Array.unsafe_get m 31 *. x3r))
  done

(* One pointwise sweep over indices [lo, hi) multiplying each amplitude
   by the product of a run of diagonal factors, accumulated in factor
   order so the result is a fixed fp expression whatever the chunking.
   Arity-1 factor [f] reads bit [shifts1.(f)] and entries [d1.(4f ..
   4f+3)]; arity-2 factor [f] reads bits [shifts2.(2f)] (the MSB wire)
   and [shifts2.(2f+1)] and entries [d2.(8f .. 8f+7)]. *)
let diag (re : float array) (im : float array) ~shifts1 ~(d1 : float array) ~shifts2
    ~(d2 : float array) lo hi =
  for idx = lo to hi - 1 do
    let pr = ref 1.0 and pi = ref 0.0 in
    for f = 0 to Array.length shifts1 - 1 do
      let o = (4 * f) + (2 * ((idx lsr Array.unsafe_get shifts1 f) land 1)) in
      let dr = Array.unsafe_get d1 o and di = Array.unsafe_get d1 (o + 1) in
      let r = (!pr *. dr) -. (!pi *. di) in
      pi := (!pr *. di) +. (!pi *. dr);
      pr := r
    done;
    for f = 0 to (Array.length shifts2 / 2) - 1 do
      let a = (idx lsr Array.unsafe_get shifts2 (2 * f)) land 1 in
      let b = (idx lsr Array.unsafe_get shifts2 ((2 * f) + 1)) land 1 in
      let o = (8 * f) + (4 * a) + (2 * b) in
      let dr = Array.unsafe_get d2 o and di = Array.unsafe_get d2 (o + 1) in
      let r = (!pr *. dr) -. (!pi *. di) in
      pi := (!pr *. di) +. (!pi *. dr);
      pr := r
    done;
    let xr = Array.unsafe_get re idx and xi = Array.unsafe_get im idx in
    Array.unsafe_set re idx ((xr *. !pr) -. (xi *. !pi));
    Array.unsafe_set im idx ((xr *. !pi) +. (xi *. !pr))
  done

(* Generic in-place k-wire dense apply: the gate-by-gate
   gather/transform/scatter minus the per-gate output planes (the fibre
   is staged in chunk-local scratch, so in-place is safe). *)
let exec_dense_generic n (re : float array) (im : float array) wires mat =
  let k = List.length wires in
  let sub_total = 1 lsl k in
  let offs = sub_offsets n wires in
  let bits_asc = sorted_bits n wires in
  let m_re, m_im = Cmat.planes mat in
  Parallel.parallel_for 0 ((1 lsl n) lsr k) (fun rlo rhi ->
      let f_re = Array.make sub_total 0.0 and f_im = Array.make sub_total 0.0 in
      let y_re = Array.make sub_total 0.0 and y_im = Array.make sub_total 0.0 in
      for r = rlo to rhi - 1 do
        let base = base_of_rest bits_asc r in
        for s = 0 to sub_total - 1 do
          let j = base + Array.unsafe_get offs s in
          Array.unsafe_set f_re s (Array.unsafe_get re j);
          Array.unsafe_set f_im s (Array.unsafe_get im j)
        done;
        Cmat.apply_planes ~rows:sub_total ~cols:sub_total ~m_re ~m_im ~x_re:f_re ~x_im:f_im
          ~y_re ~y_im;
        for s = 0 to sub_total - 1 do
          let j = base + Array.unsafe_get offs s in
          Array.unsafe_set re j (Array.unsafe_get y_re s);
          Array.unsafe_set im j (Array.unsafe_get y_im s)
        done
      done)

let exec_perm n (re : float array) (im : float array) wires perm =
  let k = List.length wires in
  let sub_total = 1 lsl k in
  let offs = sub_offsets n wires in
  let bits_asc = sorted_bits n wires in
  Parallel.parallel_for 0 ((1 lsl n) lsr k) (fun rlo rhi ->
      let f_re = Array.make sub_total 0.0 and f_im = Array.make sub_total 0.0 in
      for r = rlo to rhi - 1 do
        let base = base_of_rest bits_asc r in
        for s = 0 to sub_total - 1 do
          let j = base + Array.unsafe_get offs s in
          Array.unsafe_set f_re s (Array.unsafe_get re j);
          Array.unsafe_set f_im s (Array.unsafe_get im j)
        done;
        for s = 0 to sub_total - 1 do
          let j = base + Array.unsafe_get offs (Array.unsafe_get perm s) in
          Array.unsafe_set re j (Array.unsafe_get f_re s);
          Array.unsafe_set im j (Array.unsafe_get f_im s)
        done
      done)

let exec_diag n re im gates =
  let g1 = List.filter (fun (w, _) -> List.length w = 1) gates in
  let g2 = List.filter (fun (w, _) -> List.length w = 2) gates in
  let table width g =
    let d = Array.make (2 * width * List.length g) 0.0 in
    List.iteri
      (fun f (_, entries) ->
        Array.iteri
          (fun v (z : Cx.t) ->
            d.((2 * width * f) + (2 * v)) <- z.Complex.re;
            d.((2 * width * f) + (2 * v) + 1) <- z.Complex.im)
          entries)
      g;
    d
  in
  let shifts1 = Array.of_list (List.map (fun (w, _) -> bit_of n (List.hd w)) g1) in
  let shifts2 = Array.of_list (List.concat_map (fun (w, _) -> List.map (bit_of n) w) g2) in
  Parallel.parallel_for 0 (1 lsl n)
    (diag re im ~shifts1 ~d1:(table 2 g1) ~shifts2 ~d2:(table 4 g2))

let exec_step n re im step =
  (match step with
  | Fused { wires = [ w ]; mat; _ } ->
      Parallel.parallel_for 0 (1 lsl (n - 1)) (apply1 re im (mat_table mat) ~bit:(bit_of n w))
  | Fused { wires = [ a; b ]; mat; _ } ->
      Parallel.parallel_for 0 (1 lsl (n - 2))
        (apply2 re im (mat_table mat) ~bit_a:(bit_of n a) ~bit_b:(bit_of n b))
  | Fused { wires; mat; _ } -> exec_dense_generic n re im wires mat
  | Diag { gates } -> exec_diag n re im gates
  | Perm { wires; perm; _ } -> exec_perm n re im wires perm);
  Metrics.record_fused_pass ()

let run_planes plan ~re ~im =
  let n = plan.num_qubits in
  (* [1 lsl n] must be exact for the length check to bound every index *)
  if n < 0 || n >= Sys.int_size - 1 then
    invalid_arg "Circuit_plan.run_planes: num_qubits out of range";
  if Array.length re <> 1 lsl n || Array.length im <> 1 lsl n then
    invalid_arg "Circuit_plan.run_planes: plane length mismatch";
  validate n plan.steps;
  let re = Array.copy re and im = Array.copy im in
  List.iter (exec_step n re im) plan.steps;
  Metrics.add_fused_gates plan.source_gates;
  (re, im)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let gate_count t = t.source_gates
let step_count t = List.length t.steps

let bytes t =
  List.fold_left
    (fun acc step ->
      acc + 64
      +
      match step with
      | Fused { mat; _ } ->
          let dim = Cmat.rows mat in
          2 * dim * dim * 8
      | Diag { gates } ->
          List.fold_left (fun a (_, d) -> a + (Array.length d * 16) + 32) 0 gates
      | Perm { perm; _ } -> Array.length perm * 8)
    128 t.steps

let stats t =
  let f1 = ref 0 and f2 = ref 0 and fk = ref 0 and fused_src = ref 0 in
  let dpass = ref 0 and dgates = ref 0 in
  let ppass = ref 0 and pgates = ref 0 in
  List.iter
    (function
      | Fused { wires; count; _ } ->
          fused_src := !fused_src + count;
          incr (match List.length wires with 1 -> f1 | 2 -> f2 | _ -> fk)
      | Diag { gates } ->
          incr dpass;
          dgates := !dgates + List.length gates
      | Perm { count; _ } ->
          incr ppass;
          pgates := !pgates + count)
    t.steps;
  [
    ("gates", string_of_int t.source_gates);
    ("steps", string_of_int (step_count t));
    ("fused_1q", string_of_int !f1);
    ("fused_2q", string_of_int !f2);
    ("fused_kq", string_of_int !fk);
    ("fused_gates", string_of_int !fused_src);
    ("diag_passes", string_of_int !dpass);
    ("diag_gates", string_of_int !dgates);
    ("perm_passes", string_of_int !ppass);
    ("perm_gates", string_of_int !pgates);
    ("bytes", string_of_int (bytes t));
  ]

let fingerprint ~num_qubits gates =
  let buf = Buffer.create 1024 in
  Buffer.add_int64_le buf (Int64.of_int num_qubits);
  List.iter
    (fun (m, wires) ->
      Buffer.add_char buf 'G';
      Buffer.add_int64_le buf (Int64.of_int (List.length wires));
      List.iter (fun w -> Buffer.add_int64_le buf (Int64.of_int w)) wires;
      let dim = Cmat.rows m in
      Buffer.add_int64_le buf (Int64.of_int dim);
      for i = 0 to dim - 1 do
        for j = 0 to dim - 1 do
          let z = m.(i).(j) in
          Buffer.add_int64_le buf (Int64.bits_of_float z.Complex.re);
          Buffer.add_int64_le buf (Int64.bits_of_float z.Complex.im)
        done
      done)
    gates;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp fmt t =
  Format.fprintf fmt "@[<v>plan over %d qubits: %d gates -> %d steps@," t.num_qubits
    t.source_gates (step_count t);
  List.iteri
    (fun i step ->
      let kind, wires, n =
        match step with
        | Fused { wires; count; _ } -> ("fused", wires, count)
        | Diag { gates } ->
            ("diag", List.sort_uniq Int.compare (List.concat_map fst gates), List.length gates)
        | Perm { wires; count; _ } -> ("perm", wires, count)
      in
      Format.fprintf fmt "  step %d: %s x%d on [%s]@," i kind n
        (String.concat "; " (List.map string_of_int wires)))
    t.steps;
  Format.fprintf fmt "@]"
