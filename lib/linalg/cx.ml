type t = Complex.t

let zero = Complex.zero
let one = Complex.one
let i = Complex.i
let re x = { Complex.re = x; im = 0.0 }
let make re im = { Complex.re; im }
let add = Complex.add
let mul = Complex.mul
let neg = Complex.neg
let conj = Complex.conj
let scale s z = { Complex.re = s *. z.Complex.re; im = s *. z.Complex.im }
let norm2 = Complex.norm2
let polar r theta = { Complex.re = r *. cos theta; im = r *. sin theta }

let root_of_unity n k =
  if n < 1 then invalid_arg "Cx.root_of_unity: n < 1";
  let k = ((k mod n) + n) mod n in
  (* Exact values at the axes avoid accumulating rounding noise in
     QFT matrices over small even dimensions. *)
  if k = 0 then one
  else if 4 * k = n then i
  else if 2 * k = n then neg one
  else if 4 * k = 3 * n then neg i
  else polar 1.0 (2.0 *. Float.pi *. float_of_int k /. float_of_int n)

let approx_equal ?(eps = 1e-9) a b =
  Float.abs (a.Complex.re -. b.Complex.re) <= eps
  && Float.abs (a.Complex.im -. b.Complex.im) <= eps
