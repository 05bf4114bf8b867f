type elt = int array

let equal (p : elt) q =
  Array.length p = Array.length q && Array.for_all2 (fun (x : int) y -> x = y) p q

let identity n = Array.init n (fun i -> i)

let compose p q =
  if Array.length p <> Array.length q then invalid_arg "Perm.compose: degree mismatch";
  Array.init (Array.length p) (fun i -> p.(q.(i)))

let inverse p =
  let q = Array.make (Array.length p) 0 in
  Array.iteri (fun i pi -> q.(pi) <- i) p;
  q

let is_valid p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.for_all
    (fun x ->
      if x < 0 || x >= n || seen.(x) then false
      else begin
        seen.(x) <- true;
        true
      end)
    p

let of_cycles n cycles =
  let p = identity n in
  List.iter
    (fun cycle ->
      match cycle with
      | [] | [ _ ] -> ()
      | first :: _ ->
          let rec link = function
            | a :: (b :: _ as rest) ->
                p.(a) <- b;
                link rest
            | [ last ] -> p.(last) <- first
            | [] -> ()
          in
          link cycle)
    cycles;
  if not (is_valid p) then invalid_arg "Perm.of_cycles: cycles not disjoint/valid";
  p

let to_cycles p =
  let n = Array.length p in
  let seen = Array.make n false in
  let cycles = ref [] in
  for i = 0 to n - 1 do
    if (not seen.(i)) && not (Int.equal p.(i) i) then begin
      let cycle = ref [ i ] in
      seen.(i) <- true;
      let j = ref p.(i) in
      while !j <> i do
        seen.(!j) <- true;
        cycle := !j :: !cycle;
        j := p.(!j)
      done;
      cycles := List.rev !cycle :: !cycles
    end
  done;
  List.sort (List.compare Int.compare) !cycles

let repr p = String.concat "," (List.map string_of_int (Array.to_list p))

let group ?name n generators =
  List.iter
    (fun p ->
      if Array.length p <> n || not (is_valid p) then
        invalid_arg "Perm.group: invalid generator")
    generators;
  let name = match name with Some s -> s | None -> Printf.sprintf "Perm(%d)" n in
  Group.make ~name ~mul:compose ~inv:inverse ~id:(identity n) ~equal ~repr
    ~generators

let cyclic_shift n = Array.init n (fun i -> (i + 1) mod n)

let symmetric n =
  if n < 1 then invalid_arg "Perm.symmetric: n < 1";
  let gens = if n = 1 then [ identity 1 ] else [ of_cycles n [ [ 0; 1 ] ]; cyclic_shift n ] in
  group ~name:(Printf.sprintf "S_%d" n) n gens

let alternating n =
  if n < 3 then group ~name:(Printf.sprintf "A_%d" n) (max n 1) [ identity (max n 1) ]
  else
    let gens = List.init (n - 2) (fun i -> of_cycles n [ [ 0; i + 1; i + 2 ] ]) in
    group ~name:(Printf.sprintf "A_%d" n) n gens
