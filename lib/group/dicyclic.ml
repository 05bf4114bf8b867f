type elt = { j : int; e : int }

let equal x y = Int.equal x.j y.j && Int.equal x.e y.e

(* Multiplication from the normal form a^j b^e:
   b a^j = a^-j b, and b^2 = a^n, hence
   (a^j b^e)(a^j' b^e') =
     e = 0:  a^(j+j') b^e'
     e = 1:  a^(j-j') b^(1+e')  with b^2 folded to a^n when e' = 1. *)
let group n =
  if n < 1 then invalid_arg "Dicyclic.group: n < 1";
  let m = 2 * n in
  let norm j = Numtheory.Arith.emod j m in
  let mul x y =
    if x.e = 0 then { j = norm (x.j + y.j); e = y.e }
    else if y.e = 0 then { j = norm (x.j - y.j); e = 1 }
    else { j = norm (x.j - y.j + n); e = 0 }
  in
  let inv x =
    (* (a^j)^-1 = a^-j; (a^j b)^-1 = a^(j+n) b since
       (a^j b)(a^(j+n) b) = a^(j - j - n + n) = 1 *)
    if x.e = 0 then { j = norm (-x.j); e = 0 } else { j = norm (x.j + n); e = 1 }
  in
  Group.make
    ~name:(Printf.sprintf "Q_%d" (4 * n))
    ~mul ~inv ~id:{ j = 0; e = 0 } ~equal
    ~repr:(fun x -> Printf.sprintf "%d.%d" x.j x.e)
    ~generators:[ { j = 1; e = 0 }; { j = 0; e = 1 } ]

let central_involution n = { j = n; e = 0 }
