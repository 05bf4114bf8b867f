open Linalg

let forward ?plans state ~wires = State.fourier ?plans state ~wires ~inverse:false
let backward state ~wires = State.fourier state ~wires ~inverse:true

let character ~dims y x =
  let acc = ref Cx.one in
  Array.iteri
    (fun i d -> acc := Cx.mul !acc (Cx.root_of_unity d (x.(i) * y.(i))))
    dims;
  !acc

let character_is_trivial_on ~dims y h =
  (* chi_y(h) = exp(2 pi i * sum_i y_i h_i / d_i); trivial iff the
     rational sum is an integer, i.e. iff sum_i (y_i h_i mod d_i) (l / d_i)
     is 0 mod l = lcm dims.  Each term is below l and the sum is kept
     reduced mod l, so nothing passes 2^62 while l <= 2^61. *)
  let l =
    Array.fold_left
      (fun l d ->
        let g = Numtheory.Arith.gcd l d in
        if l / g > (1 lsl 61) / d then
          invalid_arg "Qft.character_is_trivial_on: lcm of dims exceeds 2^61";
        l / g * d)
      1 dims
  in
  let s = ref 0 in
  Array.iteri
    (fun i d ->
      let x = !s + (Numtheory.Primes.mulmod y.(i) h.(i) d * (l / d)) in
      s := if x >= l then x - l else x)
    dims;
  !s = 0
