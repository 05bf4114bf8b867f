open Groups

type 'a t = {
  name : string;
  group : 'a Group.t;
  hidden_gens : 'a list;
  hiding : 'a Hiding.t;
}

let make ~name group gens =
  { name; group; hidden_gens = gens; hiding = Hiding.of_subgroup group gens }

let simon ~n ~mask =
  if Array.length mask <> n then invalid_arg "Instances.simon: mask length";
  let g = Cyclic.boolean_cube n in
  make ~name:(Printf.sprintf "simon(n=%d)" n) g [ Array.map (fun b -> b land 1) mask ]

let abelian_random rng ~dims =
  let g = Cyclic.product dims in
  let gens = Group.random_subgroup_gens rng g in
  make ~name:(Printf.sprintf "abelian(%s)" g.Group.name) g gens

let dihedral_rotation ~n ~d =
  let g = Dihedral.group n in
  make
    ~name:(Printf.sprintf "D_%d-rot(%d)" n d)
    g
    (Dihedral.rotation_subgroup_gens n d)

let dihedral_reflection ~n ~d =
  let g = Dihedral.group n in
  make ~name:(Printf.sprintf "D_%d-refl(%d)" n d) g [ Dihedral.reflection n d ]

let heisenberg_random rng ~p ~m =
  let g = Extraspecial.group ~p ~m in
  let gens = Group.random_subgroup_gens rng g in
  make ~name:(Printf.sprintf "H_%d(%d)-random" p m) g gens

let heisenberg_center ~p ~m =
  let g = Extraspecial.group ~p ~m in
  make ~name:(Printf.sprintf "H_%d(%d)-center" p m) g [ Extraspecial.center_gen ~p ~m ]

let wreath_random rng ~k =
  let g = Wreath.group k in
  let gens = Group.random_subgroup_gens rng g in
  make ~name:(Printf.sprintf "wreath(k=%d)-random" k) g gens

let wreath_diagonal ~k =
  let g = Wreath.group k in
  make ~name:(Printf.sprintf "wreath(k=%d)-diag" k) g [ Wreath.swap_elt k ]

let semidirect_random rng ~n ~m =
  if m < 1 || n mod m <> 0 then invalid_arg "Instances.semidirect_random: m must divide n";
  let shift = Semidirect.cyclic_action n in
  let rec mat_pow a k =
    if k = 0 then Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0))
    else
      let h = mat_pow a (k / 2) in
      let h2 =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let s = ref 0 in
                for l = 0 to n - 1 do
                  s := !s lxor (h.(i).(l) land h.(l).(j))
                done;
                !s))
      in
      if k land 1 = 1 then
        Array.init n (fun i ->
            Array.init n (fun j ->
                let s = ref 0 in
                for l = 0 to n - 1 do
                  s := !s lxor (h2.(i).(l) land a.(l).(j))
                done;
                !s))
      else h2
  in
  let action = mat_pow shift (n / m) in
  let g = Semidirect.group ~action ~m in
  let gens = Group.random_subgroup_gens rng g in
  make ~name:(Printf.sprintf "Z2^%d:Z%d-random" n m) g gens

let dicyclic_random rng ~n =
  let g = Dicyclic.group n in
  let gens = Group.random_subgroup_gens rng g in
  make ~name:(Printf.sprintf "Q_%d-random" (4 * n)) g gens

let dicyclic_center ~n =
  let g = Dicyclic.group n in
  make ~name:(Printf.sprintf "Q_%d-center" (4 * n)) g [ Dicyclic.central_involution n ]

let frobenius_translations ~p ~q =
  let g = Metacyclic.frobenius ~p ~q in
  make ~name:(Printf.sprintf "Frob(%d,%d)-transl" p q) g [ Metacyclic.base_gen ]

let affine_translations ~p =
  let g = Metacyclic.affine ~p in
  make ~name:(Printf.sprintf "AGL(1,%d)-transl" p) g [ Metacyclic.base_gen ]

let perm_normal_klein () =
  let s4 = Perm.symmetric 4 in
  let klein =
    [ Perm.of_cycles 4 [ [ 0; 1 ]; [ 2; 3 ] ]; Perm.of_cycles 4 [ [ 0; 2 ]; [ 1; 3 ] ] ]
  in
  make ~name:"S_4-klein" s4 klein

let random_subgroup rng ~name g =
  make ~name g (Group.random_subgroup_gens rng g)

let expand_repeat s =
  let int t = int_of_string_opt (String.trim t) in
  match String.index_opt s '^' with
  | None -> ( match int s with Some n -> Ok [ n ] | None -> Error `Malformed)
  | Some i -> (
      match (int (String.sub s 0 i), int (String.sub s (i + 1) (String.length s - i - 1))) with
      | Some b, Some k when k >= 0 && k <= 100_000 -> Ok (List.init k (fun _ -> b))
      | Some _, Some _ -> Error `Repeat_out_of_range
      | _ -> Error `Malformed)

let max_wires = 1024
let too_many_wires = Printf.sprintf "more than %d cyclic factors (the wire bound)" max_wires

let expand_field expand entries =
  let rec go wires acc = function
    | [] -> Ok (Array.of_list (List.concat (List.rev acc)))
    | e :: rest -> (
        match expand e with
        | Error _ as err -> err
        | Ok xs ->
            let wires = wires + List.length xs in
            if wires > max_wires then Error too_many_wires else go wires (xs :: acc) rest)
  in
  go 0 [] entries

(* The planted quotient instance: H = prod m_i Z_{d_i} in
   Z_{d_1} x ... x Z_{d_r}, hidden by f(x) = (x_i mod m_i)_i. *)
let quotient_violation ~dims ~moduli =
  let bad = ref (if Array.length dims > max_wires then Some too_many_wires else None) in
  Array.iteri
    (fun i m ->
      if !bad = None && (m < 1 || dims.(i) < 1 || dims.(i) mod m <> 0) then
        bad :=
          Some
            (Printf.sprintf "need 1 <= m_%d and m_%d | d_%d (got m=%d, d=%d)" i i i m dims.(i)))
    moduli;
  !bad

let quotient_gens ~dims ~moduli =
  let r = Array.length dims in
  List.init r (fun i -> Array.init r (fun j -> if i = j then moduli.(i) mod dims.(i) else 0))

let quotient_subgroup ~dims ~moduli =
  Quantum.Backend_symbolic.Subgroup.of_gens ~dims (quotient_gens ~dims ~moduli)

let quotient_oracle ~moduli x =
  Quantum.Backend.encode moduli (Array.map2 (fun xi m -> xi mod m) x moduli)

let quotient_mem ~moduli x = Array.for_all2 (fun xi m -> xi mod m = 0) x moduli
