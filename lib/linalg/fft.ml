let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  let k = ref 1 in
  while !k < n do
    k := !k * 2
  done;
  !k

(* Largest length run by a straight-line kernel ([dft2] .. [dft5]). *)
let unrolled_max = 5

(* Largest non-power-of-two length run as a direct O(n^2) sum over a
   root table; above it Bluestein's two FFTs of length m >= 2n - 1 cost
   less. *)
let direct_max = 16

(* Radix-2 tables for one power-of-two length [n]: the bit-reversal
   permutation and, per butterfly stage of half-width [h], the twiddles
   w_{2h}^k = w_n^(k n / 2h) for k < h, stored contiguously at offset
   [h - 1] (n - 1 entries in all).  Every twiddle comes straight from
   Cx.root_of_unity, so none carries the rounding drift of a running
   product. *)
type radix2 = { rn : int; rev : int array; tw_re : float array; tw_im : float array }

type kind =
  | Unrolled  (** n <= 5: straight-line butterflies, no tables *)
  | Radix2 of radix2
  | Direct of { w_re : float array; w_im : float array }
      (** [w.(k) = w_n^k / sqrt n] *)
  | Bluestein of bluestein

and bluestein = {
  sub : radix2;  (** length-m transform, m = next_pow2 (2n - 1) *)
  c_re : float array;  (** chirp [c_j = e^(i pi j^2 / n)], length n *)
  c_im : float array;
  k_re : float array;  (** kernel FFT(conj c) / (m sqrt n), length m *)
  k_im : float array;
}

type plan = { n : int; kind : kind }
type scratch = { s_re : float array; s_im : float array }

let radix2 n =
  let bits = ref 0 in
  while 1 lsl !bits < n do
    incr bits
  done;
  let rev =
    Array.init n (fun i ->
        let r = ref 0 in
        for b = 0 to !bits - 1 do
          if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (!bits - 1 - b))
        done;
        !r)
  in
  let tw_re = Array.make (max 1 (n - 1)) 0.0 and tw_im = Array.make (max 1 (n - 1)) 0.0 in
  let h = ref 1 in
  while !h < n do
    for k = 0 to !h - 1 do
      let z = Cx.root_of_unity (2 * !h) k in
      tw_re.(!h - 1 + k) <- z.Complex.re;
      tw_im.(!h - 1 + k) <- z.Complex.im
    done;
    h := 2 * !h
  done;
  { rn = n; rev; tw_re; tw_im }

(* Unnormalised in-place radix-2 transform of the [r.rn] contiguous
   entries from [off], with kernel e^(sign 2 pi i jk / n), sign = +-1. *)
let butterflies r ~sign ~off re im =
  let n = r.rn and rev = r.rev and tw_re = r.tw_re and tw_im = r.tw_im in
  for i = 0 to n - 1 do
    let j = Array.unsafe_get rev i in
    if i < j then begin
      let i = off + i and j = off + j in
      let t = Array.unsafe_get re i in
      Array.unsafe_set re i (Array.unsafe_get re j);
      Array.unsafe_set re j t;
      let t = Array.unsafe_get im i in
      Array.unsafe_set im i (Array.unsafe_get im j);
      Array.unsafe_set im j t
    end
  done;
  (* first stage: the only twiddle is 1 *)
  let i = ref off and last = off + n - 1 in
  while !i < last do
    let p = !i and q = !i + 1 in
    let ar = Array.unsafe_get re p and ai = Array.unsafe_get im p in
    let br = Array.unsafe_get re q and bi = Array.unsafe_get im q in
    Array.unsafe_set re p (ar +. br);
    Array.unsafe_set im p (ai +. bi);
    Array.unsafe_set re q (ar -. br);
    Array.unsafe_set im q (ai -. bi);
    i := !i + 2
  done;
  let h = ref 2 in
  while !h < n do
    let half = !h in
    let len = 2 * half and toff = half - 1 in
    let b = ref off and stop = off + n in
    while !b < stop do
      let b0 = !b in
      for k = 0 to half - 1 do
        let wr = Array.unsafe_get tw_re (toff + k)
        and wi = sign *. Array.unsafe_get tw_im (toff + k) in
        let p = b0 + k in
        let q = p + half in
        let xr = Array.unsafe_get re q and xi = Array.unsafe_get im q in
        let tr = (wr *. xr) -. (wi *. xi) and ti = (wr *. xi) +. (wi *. xr) in
        let ar = Array.unsafe_get re p and ai = Array.unsafe_get im p in
        Array.unsafe_set re q (ar -. tr);
        Array.unsafe_set im q (ai -. ti);
        Array.unsafe_set re p (ar +. tr);
        Array.unsafe_set im p (ai +. ti)
      done;
      b := b0 + len
    done;
    h := len
  done

(* The same stages over [lanes] interleaved transforms: entry k of
   lane l at [off + k stride + l].  Each butterfly runs its lanes in
   the innermost loop, so every stage sweeps rows of [lanes] adjacent
   entries, and each lane sees exactly the arithmetic of [butterflies]. *)
let butterflies_lanes r ~sign ~off ~stride ~lanes re im =
  let n = r.rn and rev = r.rev and tw_re = r.tw_re and tw_im = r.tw_im in
  for i = 0 to n - 1 do
    let j = Array.unsafe_get rev i in
    if i < j then begin
      let pi = off + (i * stride) and pj = off + (j * stride) in
      for l = 0 to lanes - 1 do
        let i = pi + l and j = pj + l in
        let t = Array.unsafe_get re i in
        Array.unsafe_set re i (Array.unsafe_get re j);
        Array.unsafe_set re j t;
        let t = Array.unsafe_get im i in
        Array.unsafe_set im i (Array.unsafe_get im j);
        Array.unsafe_set im j t
      done
    end
  done;
  let i = ref 0 in
  while !i < n - 1 do
    let p0 = off + (!i * stride) in
    for p = p0 to p0 + lanes - 1 do
      let q = p + stride in
      let ar = Array.unsafe_get re p and ai = Array.unsafe_get im p in
      let br = Array.unsafe_get re q and bi = Array.unsafe_get im q in
      Array.unsafe_set re p (ar +. br);
      Array.unsafe_set im p (ai +. bi);
      Array.unsafe_set re q (ar -. br);
      Array.unsafe_set im q (ai -. bi)
    done;
    i := !i + 2
  done;
  let h = ref 2 in
  while !h < n do
    let half = !h in
    let len = 2 * half and toff = half - 1 and hs = half * stride in
    let b = ref 0 in
    while !b < n do
      let b0 = !b in
      for k = 0 to half - 1 do
        let wr = Array.unsafe_get tw_re (toff + k)
        and wi = sign *. Array.unsafe_get tw_im (toff + k) in
        let p0 = off + ((b0 + k) * stride) in
        for p = p0 to p0 + lanes - 1 do
          let q = p + hs in
          let xr = Array.unsafe_get re q and xi = Array.unsafe_get im q in
          let tr = (wr *. xr) -. (wi *. xi) and ti = (wr *. xi) +. (wi *. xr) in
          let ar = Array.unsafe_get re p and ai = Array.unsafe_get im p in
          Array.unsafe_set re q (ar -. tr);
          Array.unsafe_set im q (ai -. ti);
          Array.unsafe_set re p (ar +. tr);
          Array.unsafe_set im p (ai +. ti)
        done
      done;
      b := b0 + len
    done;
    h := len
  done

(* Straight-line unitary DFTs of length 2 to 5 over interleaved lanes
   (layout as in [butterflies_lanes]), for kernel e^(sign 2 pi i jk / n).
   Lengths 3 and 5 pair x_k with x_(n-k): their roots are conjugate, so
   each pair costs one real-scaled sum and one i-rotated difference. *)
let inv_sqrt n = 1.0 /. sqrt (float_of_int n)
let sc2 = inv_sqrt 2
let sc3 = inv_sqrt 3
let sc4 = inv_sqrt 4
let sc5 = inv_sqrt 5
let h3 = (Cx.root_of_unity 3 1).Complex.im
let c51 = (Cx.root_of_unity 5 1).Complex.re
let s51 = (Cx.root_of_unity 5 1).Complex.im
let c52 = (Cx.root_of_unity 5 2).Complex.re
let s52 = (Cx.root_of_unity 5 2).Complex.im

let dft2 ~off ~stride ~lanes re im =
  for p = off to off + lanes - 1 do
    let q = p + stride in
    let ar = Array.unsafe_get re p and ai = Array.unsafe_get im p in
    let br = Array.unsafe_get re q and bi = Array.unsafe_get im q in
    Array.unsafe_set re p (sc2 *. (ar +. br));
    Array.unsafe_set im p (sc2 *. (ai +. bi));
    Array.unsafe_set re q (sc2 *. (ar -. br));
    Array.unsafe_set im q (sc2 *. (ai -. bi))
  done

let dft3 ~sign ~off ~stride ~lanes re im =
  let h = sign *. h3 in
  for p0 = off to off + lanes - 1 do
    let p1 = p0 + stride in
    let p2 = p1 + stride in
    let x0r = Array.unsafe_get re p0 and x0i = Array.unsafe_get im p0 in
    let x1r = Array.unsafe_get re p1 and x1i = Array.unsafe_get im p1 in
    let x2r = Array.unsafe_get re p2 and x2i = Array.unsafe_get im p2 in
    let tr = x1r +. x2r and ti = x1i +. x2i in
    (* m = x0 - t/2, v = i h (x1 - x2) *)
    let mr = x0r -. (0.5 *. tr) and mi = x0i -. (0.5 *. ti) in
    let vr = -.h *. (x1i -. x2i) and vi = h *. (x1r -. x2r) in
    Array.unsafe_set re p0 (sc3 *. (x0r +. tr));
    Array.unsafe_set im p0 (sc3 *. (x0i +. ti));
    Array.unsafe_set re p1 (sc3 *. (mr +. vr));
    Array.unsafe_set im p1 (sc3 *. (mi +. vi));
    Array.unsafe_set re p2 (sc3 *. (mr -. vr));
    Array.unsafe_set im p2 (sc3 *. (mi -. vi))
  done

let dft4 ~sign ~off ~stride ~lanes re im =
  for p0 = off to off + lanes - 1 do
    let p1 = p0 + stride in
    let p2 = p1 + stride in
    let p3 = p2 + stride in
    let x0r = Array.unsafe_get re p0 and x0i = Array.unsafe_get im p0 in
    let x1r = Array.unsafe_get re p1 and x1i = Array.unsafe_get im p1 in
    let x2r = Array.unsafe_get re p2 and x2i = Array.unsafe_get im p2 in
    let x3r = Array.unsafe_get re p3 and x3i = Array.unsafe_get im p3 in
    let ar = x0r +. x2r and ai = x0i +. x2i and br = x0r -. x2r and bi = x0i -. x2i in
    let cr = x1r +. x3r and ci = x1i +. x3i in
    (* e = sign i (x1 - x3) *)
    let er = -.sign *. (x1i -. x3i) and ei = sign *. (x1r -. x3r) in
    Array.unsafe_set re p0 (sc4 *. (ar +. cr));
    Array.unsafe_set im p0 (sc4 *. (ai +. ci));
    Array.unsafe_set re p1 (sc4 *. (br +. er));
    Array.unsafe_set im p1 (sc4 *. (bi +. ei));
    Array.unsafe_set re p2 (sc4 *. (ar -. cr));
    Array.unsafe_set im p2 (sc4 *. (ai -. ci));
    Array.unsafe_set re p3 (sc4 *. (br -. er));
    Array.unsafe_set im p3 (sc4 *. (bi -. ei))
  done

let dft5 ~sign ~off ~stride ~lanes re im =
  let s1 = sign *. s51 and s2 = sign *. s52 in
  for p0 = off to off + lanes - 1 do
    let p1 = p0 + stride in
    let p2 = p1 + stride in
    let p3 = p2 + stride in
    let p4 = p3 + stride in
    let x0r = Array.unsafe_get re p0 and x0i = Array.unsafe_get im p0 in
    let x1r = Array.unsafe_get re p1 and x1i = Array.unsafe_get im p1 in
    let x2r = Array.unsafe_get re p2 and x2i = Array.unsafe_get im p2 in
    let x3r = Array.unsafe_get re p3 and x3i = Array.unsafe_get im p3 in
    let x4r = Array.unsafe_get re p4 and x4i = Array.unsafe_get im p4 in
    let t1r = x1r +. x4r and t1i = x1i +. x4i and u1r = x1r -. x4r and u1i = x1i -. x4i in
    let t2r = x2r +. x3r and t2i = x2i +. x3i and u2r = x2r -. x3r and u2i = x2i -. x3i in
    (* X1, X4 = a1 +- i b1 and X2, X3 = a2 +- i b2 *)
    let a1r = x0r +. (c51 *. t1r) +. (c52 *. t2r) and a1i = x0i +. (c51 *. t1i) +. (c52 *. t2i) in
    let a2r = x0r +. (c52 *. t1r) +. (c51 *. t2r) and a2i = x0i +. (c52 *. t1i) +. (c51 *. t2i) in
    let b1r = (s1 *. u1r) +. (s2 *. u2r) and b1i = (s1 *. u1i) +. (s2 *. u2i) in
    let b2r = (s2 *. u1r) -. (s1 *. u2r) and b2i = (s2 *. u1i) -. (s1 *. u2i) in
    Array.unsafe_set re p0 (sc5 *. (x0r +. t1r +. t2r));
    Array.unsafe_set im p0 (sc5 *. (x0i +. t1i +. t2i));
    Array.unsafe_set re p1 (sc5 *. (a1r -. b1i));
    Array.unsafe_set im p1 (sc5 *. (a1i +. b1r));
    Array.unsafe_set re p4 (sc5 *. (a1r +. b1i));
    Array.unsafe_set im p4 (sc5 *. (a1i -. b1r));
    Array.unsafe_set re p2 (sc5 *. (a2r -. b2i));
    Array.unsafe_set im p2 (sc5 *. (a2i +. b2r));
    Array.unsafe_set re p3 (sc5 *. (a2r +. b2i));
    Array.unsafe_set im p3 (sc5 *. (a2i -. b2r))
  done

(* Bluestein's chirp-z transform: w^(jk) = c_j c_k conj(c_(k-j)) with
   c_j = w^(j^2/2), so X = c . (conv (x . c) (conj c)) — a circular
   convolution of length m >= 2n - 1, evaluated with two length-m
   FFTs against a kernel transformed once here.  The half-square chirp
   e^(i pi j^2 / n) is an exact 2n-th root of unity at exponent
   j^2 mod 2n.  The unitary 1/sqrt n and the convolution's 1/m are
   folded into the kernel. *)
let bluestein n =
  let m = next_pow2 ((2 * n) - 1) in
  let sub = radix2 m in
  let c_re = Array.make n 0.0 and c_im = Array.make n 0.0 in
  for j = 0 to n - 1 do
    let z = Cx.root_of_unity (2 * n) (j * j mod (2 * n)) in
    c_re.(j) <- z.Complex.re;
    c_im.(j) <- z.Complex.im
  done;
  let k_re = Array.make m 0.0 and k_im = Array.make m 0.0 in
  for j = 0 to n - 1 do
    k_re.(j) <- c_re.(j);
    k_im.(j) <- -.c_im.(j);
    if j > 0 then begin
      k_re.(m - j) <- c_re.(j);
      k_im.(m - j) <- -.c_im.(j)
    end
  done;
  butterflies sub ~sign:1.0 ~off:0 k_re k_im;
  let s = 1.0 /. (float_of_int m *. sqrt (float_of_int n)) in
  for k = 0 to m - 1 do
    k_re.(k) <- s *. k_re.(k);
    k_im.(k) <- s *. k_im.(k)
  done;
  Bluestein { sub; c_re; c_im; k_re; k_im }

let plan n =
  if n < 1 then invalid_arg "Fft.plan: length < 1";
  let kind =
    if n <= unrolled_max then Unrolled
    else if is_pow2 n then Radix2 (radix2 n)
    else if n <= direct_max then begin
      let s = inv_sqrt n in
      let w_re = Array.make n 0.0 and w_im = Array.make n 0.0 in
      for k = 0 to n - 1 do
        let z = Cx.root_of_unity n k in
        w_re.(k) <- s *. z.Complex.re;
        w_im.(k) <- s *. z.Complex.im
      done;
      Direct { w_re; w_im }
    end
    else bluestein n
  in
  { n; kind }

let length p = p.n

let plan_or_build p n =
  match p with
  | None -> plan n
  | Some p ->
      if p.n <> n then invalid_arg "Fft.plan_or_build: plan of another length";
      p

let plan_bytes p =
  (* header + fields of every block the plan owns *)
  let word = Sys.word_size / 8 in
  let floats a = word * (Array.length a + 1) in
  let radix2_bytes r = (word * (Array.length r.rev + 6)) + floats r.tw_re + floats r.tw_im in
  (word * 3)
  +
  match p.kind with
  | Unrolled -> 0
  | Radix2 r -> word * 2 + radix2_bytes r
  | Direct { w_re; w_im } -> (word * 3) + floats w_re + floats w_im
  | Bluestein { sub; c_re; c_im; k_re; k_im } ->
      (word * 8) + radix2_bytes sub + floats c_re + floats c_im + floats k_re + floats k_im

let scratch_len p = match p.kind with Unrolled | Radix2 _ -> 0 | Direct _ -> p.n | Bluestein b -> b.sub.rn

let scratch p =
  let len = scratch_len p in
  { s_re = Array.make len 0.0; s_im = Array.make len 0.0 }

(* One lane of a root-table length, gathered into the scratch first:
   its outputs overwrite its inputs.  This and [bluestein_lane] are
   functions of their own so that their loops do not share [exec]'s
   register pressure. *)
let direct_lane ~w_re ~w_im ~sign ~n s ~base ~stride re im =
  let x_re = s.s_re and x_im = s.s_im in
  for k = 0 to n - 1 do
    Array.unsafe_set x_re k (Array.unsafe_get re (base + (k * stride)));
    Array.unsafe_set x_im k (Array.unsafe_get im (base + (k * stride)))
  done;
  for j = 0 to n - 1 do
    let acc_re = ref 0.0 and acc_im = ref 0.0 and e = ref 0 in
    for k = 0 to n - 1 do
      let wr = Array.unsafe_get w_re !e and wi = sign *. Array.unsafe_get w_im !e in
      let xr = Array.unsafe_get x_re k and xi = Array.unsafe_get x_im k in
      acc_re := !acc_re +. ((wr *. xr) -. (wi *. xi));
      acc_im := !acc_im +. ((wr *. xi) +. (wi *. xr));
      (* e = j k mod n *)
      let e' = !e + j in
      e := if e' >= n then e' - n else e'
    done;
    Array.unsafe_set re (base + (j * stride)) !acc_re;
    Array.unsafe_set im (base + (j * stride)) !acc_im
  done

(* One lane of a Bluestein length, convolved in the scratch. *)
let bluestein_lane b ~sign ~n s ~base ~stride re im =
  let { sub; c_re; c_im; k_re; k_im } = b in
  let m = sub.rn and a_re = s.s_re and a_im = s.s_im in
  for j = 0 to n - 1 do
    let cr = Array.unsafe_get c_re j and ci = sign *. Array.unsafe_get c_im j in
    let xr = Array.unsafe_get re (base + (j * stride))
    and xi = Array.unsafe_get im (base + (j * stride)) in
    Array.unsafe_set a_re j ((xr *. cr) -. (xi *. ci));
    Array.unsafe_set a_im j ((xr *. ci) +. (xi *. cr))
  done;
  Array.fill a_re n (m - n) 0.0;
  Array.fill a_im n (m - n) 0.0;
  (* the symmetric kernel makes FFT(c) = conj FFT(conj c), so the
     inverse transform needs only the conjugated tables *)
  butterflies sub ~sign:1.0 ~off:0 a_re a_im;
  for k = 0 to m - 1 do
    let kr = Array.unsafe_get k_re k and ki = sign *. Array.unsafe_get k_im k in
    let xr = Array.unsafe_get a_re k and xi = Array.unsafe_get a_im k in
    Array.unsafe_set a_re k ((xr *. kr) -. (xi *. ki));
    Array.unsafe_set a_im k ((xr *. ki) +. (xi *. kr))
  done;
  butterflies sub ~sign:(-1.0) ~off:0 a_re a_im;
  for k = 0 to n - 1 do
    let cr = Array.unsafe_get c_re k and ci = sign *. Array.unsafe_get c_im k in
    let xr = Array.unsafe_get a_re k and xi = Array.unsafe_get a_im k in
    Array.unsafe_set re (base + (k * stride)) ((xr *. cr) -. (xi *. ci));
    Array.unsafe_set im (base + (k * stride)) ((xr *. ci) +. (xi *. cr))
  done

(* Entry k of lane l sits at [off + k stride + l]; the kernels index
   the planes unchecked, so every lane must lie inside both.  The last
   entry is [off + (n - 1) stride + lanes - 1]; the product is formed
   only when both factors are below 2^31, so it cannot overflow. *)
let check_lanes p ~off ~stride ~lanes re im =
  if lanes < 1 then invalid_arg "Fft.exec: lanes < 1";
  if stride < lanes then invalid_arg "Fft.exec: stride < lanes";
  if off < 0 then invalid_arg "Fft.exec: negative offset";
  let room = Int.min (Array.length re) (Array.length im) - off - lanes and rows = p.n - 1 in
  let small = 1 lsl 31 in
  if
    room < 0
    || rows > 0
       && (stride > room
          || if stride < small && rows < small then rows * stride > room else room / rows < stride)
  then invalid_arg "Fft.exec: lanes run past the planes"

let exec p ~inverse s ~off ~stride ~lanes re im =
  let n = p.n in
  check_lanes p ~off ~stride ~lanes re im;
  (* the kernels below index the scratch unchecked *)
  if Array.length s.s_re < scratch_len p then invalid_arg "Fft.exec: scratch of a smaller plan";
  (* the inverse of the unitary DFT is its conjugate: flip the sign of
     every imaginary table entry *)
  let sign = if inverse then -1.0 else 1.0 in
  match p.kind with
  | Unrolled -> (
      match n with
      | 2 -> dft2 ~off ~stride ~lanes re im
      | 3 -> dft3 ~sign ~off ~stride ~lanes re im
      | 4 -> dft4 ~sign ~off ~stride ~lanes re im
      | 5 -> dft5 ~sign ~off ~stride ~lanes re im
      | _ -> (* n = 1: the identity *) ())
  | Radix2 r ->
      (* stride 1 means one contiguous lane: the sparse fibres' case *)
      if stride = 1 then butterflies r ~sign ~off re im
      else butterflies_lanes r ~sign ~off ~stride ~lanes re im;
      let sc = inv_sqrt n in
      (* stride = lanes leaves no gaps: one flat sweep *)
      let rows, width = if stride = lanes then (1, n * lanes) else (n, lanes) in
      for k = 0 to rows - 1 do
        let p0 = off + (k * stride) in
        for i = p0 to p0 + width - 1 do
          Array.unsafe_set re i (sc *. Array.unsafe_get re i);
          Array.unsafe_set im i (sc *. Array.unsafe_get im i)
        done
      done
  | Direct { w_re; w_im } ->
      for l = 0 to lanes - 1 do
        direct_lane ~w_re ~w_im ~sign ~n s ~base:(off + l) ~stride re im
      done
  | Bluestein b ->
      for l = 0 to lanes - 1 do
        bluestein_lane b ~sign ~n s ~base:(off + l) ~stride re im
      done
