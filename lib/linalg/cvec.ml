type t = Cx.t array

let make n = Array.make n Cx.zero

let basis dim k =
  if k < 0 || k >= dim then invalid_arg "Cvec.basis: index out of range";
  let v = make dim in
  v.(k) <- Cx.one;
  v

let dim = Array.length

(* Shared normalisation tolerances — the single definition used by
   every normalise entry point (here and in the simulator backends), so
   "what counts as a zero vector" and "close enough to unit norm to
   skip rescaling" cannot drift apart between representations. *)
let zero_norm_floor = 1e-150

(* ------------------------------------------------------------------ *)
(* Split-plane layout: a complex vector as two unboxed float arrays.  *)
(* The dense simulator backend stores amplitudes this way; these are  *)
(* the conversion and in-place arithmetic entry points it uses.       *)
(* ------------------------------------------------------------------ *)

let split v =
  let n = dim v in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let z = v.(k) in
    re.(k) <- z.Complex.re;
    im.(k) <- z.Complex.im
  done;
  (re, im)

let join ~re ~im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Cvec.join: plane length mismatch";
  Array.init n (fun k -> Cx.make re.(k) im.(k))

let norm2_planes ~re ~im ~lo ~hi =
  let acc = ref 0.0 in
  for k = lo to hi - 1 do
    let x = Array.unsafe_get re k and y = Array.unsafe_get im k in
    acc := !acc +. (x *. x) +. (y *. y)
  done;
  !acc

let scale_planes s ~re ~im ~lo ~hi =
  for k = lo to hi - 1 do
    Array.unsafe_set re k (s *. Array.unsafe_get re k);
    Array.unsafe_set im k (s *. Array.unsafe_get im k)
  done

let normalize_planes ~re ~im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Cvec.normalize_planes: plane length mismatch";
  let nrm = sqrt (norm2_planes ~re ~im ~lo:0 ~hi:n) in
  if nrm < zero_norm_floor then invalid_arg "Cvec.normalize: zero vector";
  scale_planes (1.0 /. nrm) ~re ~im ~lo:0 ~hi:n

let approx_equal ?(eps = 1e-9) a b =
  Int.equal (dim a) (dim b)
  && begin
       let ok = ref true in
       for k = 0 to dim a - 1 do
         if not (Cx.approx_equal ~eps a.(k) b.(k)) then ok := false
       done;
       !ok
     end
