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
     rational sum is an integer. *)
  let l = Array.fold_left Numtheory.Arith.lcm 1 dims in
  let s = ref 0 in
  Array.iteri (fun i d -> s := !s + (y.(i) * h.(i) * (l / d))) dims;
  !s mod l = 0
