open Linalg

let h =
  let s = 1.0 /. sqrt 2.0 in
  [| [| Cx.re s; Cx.re s |]; [| Cx.re s; Cx.re (-.s) |] |]

let x = [| [| Cx.zero; Cx.one |]; [| Cx.one; Cx.zero |] |]
let z = [| [| Cx.one; Cx.zero |]; [| Cx.zero; Cx.neg Cx.one |] |]
let rk k = [| [| Cx.one; Cx.zero |]; [| Cx.zero; Cx.root_of_unity (1 lsl k) 1 |] |]

let controlled u =
  let d = Cmat.rows u in
  Cmat.init (2 * d) (2 * d) (fun i j ->
      if i < d && j < d then if i = j then Cx.one else Cx.zero
      else if i >= d && j >= d then u.(i - d).(j - d)
      else Cx.zero)

let swap =
  Cmat.init 4 4 (fun i j ->
      let swapped = (i lsr 1) lor ((i land 1) lsl 1) in
      if j = swapped then Cx.one else Cx.zero)
