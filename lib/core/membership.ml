open Groups
open Numtheory

type witness = { exponents : int array }

let check_commuting (g : 'a Group.t) xs =
  let rec pairs = function
    | [] -> true
    | x :: rest ->
        List.for_all (fun y -> g.Group.equal (g.Group.mul x y) (g.Group.mul y x)) rest
        && pairs rest
  in
  pairs xs

let interner () =
  let table : (string, int) Hashtbl.t = Hashtbl.create 256 in
  fun s ->
    match Hashtbl.find_opt table s with
    | Some k -> k
    | None ->
        let k = Hashtbl.length table in
        Hashtbl.add table s k;
        k

(* phi(a) = prod xs_i ^ a_i as an interned tag.  phi is a homomorphism
   because the xs commute, so its "hiding function" tag map hides the
   kernel. *)
let power_map_oracle (g : 'a Group.t) xs =
  let intern = interner () in
  let xs = Array.of_list xs in
  fun (a : int array) ->
    let acc = ref g.Group.id in
    Array.iteri (fun i ai -> acc := g.Group.mul !acc (Group.pow g xs.(i) ai)) a;
    intern (g.Group.repr !acc)

let express rng (g : 'a Group.t) ~hs x ~order_bound ~queries =
  if not (check_commuting g (x :: hs)) then
    invalid_arg "Membership.express: elements do not pairwise commute";
  let r = List.length hs in
  let orders =
    Array.of_list
      (List.map (fun h -> Order_finding.order rng g h ~bound:order_bound ~queries) hs)
  in
  let s = Order_finding.order rng g x ~bound:order_bound ~queries in
  let dims = Array.append orders [| s |] in
  (* phi(a_1..a_r, a) = h_1^{a_1} ... h_r^{a_r} x^{-a} *)
  let f = power_map_oracle g (hs @ [ g.Group.inv x ]) in
  let kernel, _ = Abelian_hsp.solve_dims rng ~dims ~f ~quantum:queries () in
  (* Fold the last coordinates with extended gcd to reach
     gcd(last coords, s); a unit exists iff that gcd is 1. *)
  let zero = Array.make (r + 1) 0 in
  let combine (v1 : int array) (v2 : int array) =
    let l1 = v1.(r) and l2 = v2.(r) in
    if l1 = 0 then v2
    else if l2 = 0 then v1
    else begin
      let _, a, b = Arith.egcd l1 l2 in
      Array.init (r + 1) (fun i ->
          let m = if i = r then dims.(r) else dims.(i) in
          Arith.emod ((a * v1.(i)) + (b * v2.(i))) m)
    end
  in
  let best = List.fold_left combine zero kernel in
  let d = Arith.gcd best.(r) s in
  if (if s = 1 then false else d <> 1) && not (s = 1) then None
  else begin
    (* scale so the last coordinate becomes 1 mod s *)
    let scale = if s = 1 then 0 else Arith.invmod best.(r) s in
    let exps =
      Array.init r (fun i ->
          if s = 1 then 0 else Arith.emod (best.(i) * scale) orders.(i))
    in
    (* if s = 1 then x is the identity and the empty product works *)
    let candidate =
      List.fold_left2
        (fun acc h e -> g.Group.mul acc (Group.pow g h e))
        g.Group.id hs (Array.to_list exps)
    in
    if g.Group.equal candidate x then Some { exponents = exps }
    else None
  end
