let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  let k = ref 1 in
  while !k < n do
    k := !k * 2
  done;
  !k

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
  | Radix2 of radix2
  | Direct of { w_re : float array; w_im : float array }
      (** [w.(k) = w_n^k / sqrt n] *)
  | Bluestein of {
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

(* Unnormalised in-place radix-2 transform of the first [r.rn] entries
   with kernel e^(sign 2 pi i jk / n), sign = +-1. *)
let butterflies r ~sign re im =
  let n = r.rn and rev = r.rev and tw_re = r.tw_re and tw_im = r.tw_im in
  for i = 0 to n - 1 do
    let j = Array.unsafe_get rev i in
    if i < j then begin
      let t = Array.unsafe_get re i in
      Array.unsafe_set re i (Array.unsafe_get re j);
      Array.unsafe_set re j t;
      let t = Array.unsafe_get im i in
      Array.unsafe_set im i (Array.unsafe_get im j);
      Array.unsafe_set im j t
    end
  done;
  (* first stage: the only twiddle is 1 *)
  let i = ref 0 in
  while !i < n - 1 do
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
    let len = 2 * half and off = half - 1 in
    let b = ref 0 in
    while !b < n do
      let b0 = !b in
      for k = 0 to half - 1 do
        let wr = Array.unsafe_get tw_re (off + k)
        and wi = sign *. Array.unsafe_get tw_im (off + k) in
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
  butterflies sub ~sign:1.0 k_re k_im;
  let s = 1.0 /. (float_of_int m *. sqrt (float_of_int n)) in
  for k = 0 to m - 1 do
    k_re.(k) <- s *. k_re.(k);
    k_im.(k) <- s *. k_im.(k)
  done;
  Bluestein { sub; c_re; c_im; k_re; k_im }

let plan n =
  if n < 1 then invalid_arg "Fft.plan: length < 1";
  let kind =
    if is_pow2 n then Radix2 (radix2 n)
    else if n <= direct_max then begin
      let s = 1.0 /. sqrt (float_of_int n) in
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

let scratch_len p = match p.kind with Radix2 _ -> 0 | Direct _ -> p.n | Bluestein b -> b.sub.rn

let scratch p =
  let len = scratch_len p in
  { s_re = Array.make len 0.0; s_im = Array.make len 0.0 }

let exec p ~inverse s re im =
  let n = p.n in
  if Array.length re < n || Array.length im < n then
    invalid_arg "Fft.exec: planes shorter than the plan";
  (* the kernels below index the scratch unchecked *)
  if Array.length s.s_re < scratch_len p then invalid_arg "Fft.exec: scratch of a smaller plan";
  (* the inverse of the unitary DFT is its conjugate: flip the sign of
     every imaginary table entry *)
  let sign = if inverse then -1.0 else 1.0 in
  match p.kind with
  | Radix2 r ->
      butterflies r ~sign re im;
      let sc = 1.0 /. sqrt (float_of_int n) in
      for i = 0 to n - 1 do
        Array.unsafe_set re i (sc *. Array.unsafe_get re i);
        Array.unsafe_set im i (sc *. Array.unsafe_get im i)
      done
  | Direct { w_re; w_im } ->
      let x_re = s.s_re and x_im = s.s_im in
      Array.blit re 0 x_re 0 n;
      Array.blit im 0 x_im 0 n;
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
        Array.unsafe_set re j !acc_re;
        Array.unsafe_set im j !acc_im
      done
  | Bluestein { sub; c_re; c_im; k_re; k_im } ->
      let m = sub.rn and a_re = s.s_re and a_im = s.s_im in
      for j = 0 to n - 1 do
        let cr = Array.unsafe_get c_re j and ci = sign *. Array.unsafe_get c_im j in
        let xr = Array.unsafe_get re j and xi = Array.unsafe_get im j in
        Array.unsafe_set a_re j ((xr *. cr) -. (xi *. ci));
        Array.unsafe_set a_im j ((xr *. ci) +. (xi *. cr))
      done;
      Array.fill a_re n (m - n) 0.0;
      Array.fill a_im n (m - n) 0.0;
      (* the symmetric kernel makes FFT(c) = conj FFT(conj c), so the
         inverse transform needs only the conjugated tables *)
      butterflies sub ~sign:1.0 a_re a_im;
      for k = 0 to m - 1 do
        let kr = Array.unsafe_get k_re k and ki = sign *. Array.unsafe_get k_im k in
        let xr = Array.unsafe_get a_re k and xi = Array.unsafe_get a_im k in
        Array.unsafe_set a_re k ((xr *. kr) -. (xi *. ki));
        Array.unsafe_set a_im k ((xr *. ki) +. (xi *. kr))
      done;
      butterflies sub ~sign:(-1.0) a_re a_im;
      for k = 0 to n - 1 do
        let cr = Array.unsafe_get c_re k and ci = sign *. Array.unsafe_get c_im k in
        let xr = Array.unsafe_get a_re k and xi = Array.unsafe_get a_im k in
        Array.unsafe_set re k ((xr *. cr) -. (xi *. ci));
        Array.unsafe_set im k ((xr *. ci) +. (xi *. cr))
      done

(* Boxed adapters over a one-shot plan, for callers holding Cx arrays
   (the hashtable backend and the tests). *)
let dft_any ?(inverse = false) v =
  let n = Array.length v in
  let p = plan n in
  let re = Array.map (fun z -> z.Complex.re) v and im = Array.map (fun z -> z.Complex.im) v in
  exec p ~inverse (scratch p) re im;
  for i = 0 to n - 1 do
    v.(i) <- Cx.make re.(i) im.(i)
  done

let transform ?(inverse = false) v =
  if not (is_pow2 (Array.length v)) then invalid_arg "Fft.transform: length not a power of two";
  dft_any ~inverse v
