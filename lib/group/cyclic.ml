type elt = int array

let equal (a : elt) b =
  Array.length a = Array.length b && Array.for_all2 (fun (x : int) y -> x = y) a b

let registry : (string, int array) Hashtbl.t = Hashtbl.create 8

let product dims =
  Array.iter (fun d -> if d < 1 then invalid_arg "Cyclic.product: dimension < 1") dims;
  let r = Array.length dims in
  let reduce x = Array.init r (fun i -> Numtheory.Arith.emod x.(i) dims.(i)) in
  let name =
    "Z" ^ String.concat "x" (Array.to_list (Array.map string_of_int dims))
  in
  Hashtbl.replace registry name dims;
  let generators =
    List.filter_map
      (fun i ->
        if dims.(i) = 1 then None
        else Some (Array.init r (fun j -> if i = j then 1 else 0)))
      (List.init r (fun i -> i))
  in
  let generators = if generators = [] then [ Array.make r 0 ] else generators in
  Group.make ~name
    ~mul:(fun a b -> reduce (Array.init r (fun i -> a.(i) + b.(i))))
    ~inv:(fun a -> reduce (Array.map (fun x -> -x) a))
    ~id:(Array.make r 0) ~equal
    ~repr:(fun a -> String.concat "," (List.map string_of_int (Array.to_list a)))
    ~generators

let boolean_cube n = product (Array.make n 2)
