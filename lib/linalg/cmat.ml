type t = Cx.t array array

let init r c f = Array.init r (fun i -> Array.init c (fun j -> f i j))
let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)
let rows m = Array.length m
let cols m = if Array.length m = 0 then 0 else Array.length m.(0)

let mul a b =
  let r = rows a and n = cols a and c = cols b in
  if rows b <> n then invalid_arg "Cmat.mul: dimension mismatch";
  init r c (fun i j ->
      let acc = ref Cx.zero in
      for k = 0 to n - 1 do
        acc := Cx.add !acc (Cx.mul a.(i).(k) b.(k).(j))
      done;
      !acc)

let apply m v =
  let r = rows m and c = cols m in
  if Array.length v <> c then invalid_arg "Cmat.apply: dimension mismatch";
  Array.init r (fun i ->
      let acc = ref Cx.zero in
      for j = 0 to c - 1 do
        acc := Cx.add !acc (Cx.mul m.(i).(j) v.(j))
      done;
      !acc)

let adjoint m = init (cols m) (rows m) (fun i j -> Cx.conj m.(j).(i))

(* Row-major split-plane copy of the matrix, for the dense backend's
   unboxed kernels: element (i, j) lives at [i * cols + j]. *)
let planes m =
  let r = rows m and c = cols m in
  let re = Array.make (r * c) 0.0 and im = Array.make (r * c) 0.0 in
  for i = 0 to r - 1 do
    let row = m.(i) in
    for j = 0 to c - 1 do
      let z = row.(j) in
      re.((i * c) + j) <- z.Complex.re;
      im.((i * c) + j) <- z.Complex.im
    done
  done;
  (re, im)

(* y = M x on split planes, no allocation: the inner loop of the dense
   backend's gather/transform/scatter kernel.  All four vector planes
   must be distinct from each other (y is written, x only read). *)
let apply_planes ~rows ~cols ~m_re ~m_im ~x_re ~x_im ~y_re ~y_im =
  if Array.length m_re <> rows * cols || Array.length m_im <> rows * cols then
    invalid_arg "Cmat.apply_planes: matrix plane dimension mismatch";
  if
    Array.length x_re < cols || Array.length x_im < cols || Array.length y_re < rows
    || Array.length y_im < rows
  then invalid_arg "Cmat.apply_planes: vector plane dimension mismatch";
  for i = 0 to rows - 1 do
    let base = i * cols in
    let acc_re = ref 0.0 and acc_im = ref 0.0 in
    for j = 0 to cols - 1 do
      let mr = Array.unsafe_get m_re (base + j) and mi = Array.unsafe_get m_im (base + j) in
      let xr = Array.unsafe_get x_re j and xi = Array.unsafe_get x_im j in
      acc_re := !acc_re +. (mr *. xr) -. (mi *. xi);
      acc_im := !acc_im +. (mr *. xi) +. (mi *. xr)
    done;
    y_re.(i) <- !acc_re;
    y_im.(i) <- !acc_im
  done

let kron a b =
  let ra = rows a and ca = cols a and rb = rows b and cb = cols b in
  init (ra * rb) (ca * cb) (fun i j ->
      Cx.mul a.(i / rb).(j / cb) b.(i mod rb).(j mod cb))

let approx_equal ?(eps = 1e-9) a b =
  Int.equal (rows a) (rows b)
  && Int.equal (cols a) (cols b)
  && begin
       let ok = ref true in
       for i = 0 to rows a - 1 do
         for j = 0 to cols a - 1 do
           if not (Cx.approx_equal ~eps a.(i).(j) b.(i).(j)) then ok := false
         done
       done;
       !ok
     end

let is_unitary ?(eps = 1e-9) m =
  rows m = cols m && approx_equal ~eps (mul (adjoint m) m) (identity (rows m))

let dft n =
  if n < 1 then invalid_arg "Cmat.dft: n < 1";
  let s = 1.0 /. sqrt (float_of_int n) in
  init n n (fun j k -> Cx.scale s (Cx.root_of_unity n (j * k)))

let permutation n pi =
  let seen = Array.make n false in
  for k = 0 to n - 1 do
    let p = pi k in
    if p < 0 || p >= n || seen.(p) then invalid_arg "Cmat.permutation: not a bijection";
    seen.(p) <- true
  done;
  init n n (fun i j -> if pi j = i then Cx.one else Cx.zero)
