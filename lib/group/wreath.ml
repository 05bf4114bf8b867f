type elt = { u : int array; v : int array; s : int }

let vec_equal (a : int array) b =
  Array.length a = Array.length b && Array.for_all2 (fun (x : int) y -> x = y) a b

let equal x y = Int.equal x.s y.s && vec_equal x.u y.u && vec_equal x.v y.v

let group k =
  if k < 1 then invalid_arg "Wreath.group: k < 1";
  let add a b = Array.init k (fun i -> (a.(i) + b.(i)) land 1) in
  let mul x y =
    let u', v' = if x.s = 0 then (y.u, y.v) else (y.v, y.u) in
    { u = add x.u u'; v = add x.v v'; s = (x.s + y.s) land 1 }
  in
  let inv x = if x.s = 0 then x else { u = x.v; v = x.u; s = 1 } in
  let zero = Array.make k 0 in
  let unit_vec i = Array.init k (fun j -> if i = j then 1 else 0) in
  let generators =
    List.init k (fun i -> { u = unit_vec i; v = zero; s = 0 })
    @ [ { u = zero; v = zero; s = 1 } ]
  in
  Group.make
    ~name:(Printf.sprintf "Z2^%d_wr_Z2" k)
    ~mul ~inv
    ~id:{ u = zero; v = zero; s = 0 }
    ~equal
    ~repr:(fun x ->
      String.concat ""
        (List.map string_of_int (Array.to_list x.u @ Array.to_list x.v @ [ x.s ])))
    ~generators

let base_gens k =
  let zero = Array.make k 0 in
  let unit_vec i = Array.init k (fun j -> if i = j then 1 else 0) in
  List.init k (fun i -> { u = unit_vec i; v = zero; s = 0 })
  @ List.init k (fun i -> { u = zero; v = unit_vec i; s = 0 })

let swap_elt k = { u = Array.make k 0; v = Array.make k 0; s = 1 }

let of_tuple k t =
  if Array.length t <> (2 * k) + 1 then invalid_arg "Wreath.of_tuple: length";
  {
    u = Array.init k (fun i -> t.(i) land 1);
    v = Array.init k (fun i -> t.(k + i) land 1);
    s = t.(2 * k) land 1;
  }
