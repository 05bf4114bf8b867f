open Numtheory

type elt = int array array

(* entries are kept reduced mod p, so per-entry equality is exact *)
let equal (a : elt) b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb
         && Array.for_all2 (fun (x : int) y -> x = y) ra rb)
       a b

let identity n = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0))

let reduce p m = Array.map (Array.map (fun x -> Arith.emod x p)) m

let mul p a b =
  let n = Array.length a in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let s = ref 0 in
          for k = 0 to n - 1 do
            s := (!s + (a.(i).(k) * b.(k).(j))) mod p
          done;
          !s))

(* Gauss-Jordan over GF(p). *)
let inv p a =
  let n = Array.length a in
  let m = Array.init n (fun i -> Array.copy a.(i)) in
  let e = identity n in
  for col = 0 to n - 1 do
    (* find pivot *)
    let piv = ref (-1) in
    for r = col to n - 1 do
      if !piv = -1 && m.(r).(col) mod p <> 0 then piv := r
    done;
    if !piv = -1 then invalid_arg "Matrix_group.inv: singular matrix";
    let swap arr i j =
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    in
    swap m col !piv;
    swap e col !piv;
    let ip = Arith.invmod m.(col).(col) p in
    for j = 0 to n - 1 do
      m.(col).(j) <- m.(col).(j) * ip mod p;
      e.(col).(j) <- e.(col).(j) * ip mod p
    done;
    for r = 0 to n - 1 do
      if r <> col && m.(r).(col) <> 0 then begin
        let f = m.(r).(col) in
        for j = 0 to n - 1 do
          m.(r).(j) <- Arith.emod (m.(r).(j) - (f * m.(col).(j))) p;
          e.(r).(j) <- Arith.emod (e.(r).(j) - (f * e.(col).(j))) p
        done
      end
    done
  done;
  e

let det p a =
  let n = Array.length a in
  let m = Array.init n (fun i -> Array.map (fun x -> Arith.emod x p) a.(i)) in
  let d = ref 1 in
  (try
     for col = 0 to n - 1 do
       let piv = ref (-1) in
       for r = col to n - 1 do
         if !piv = -1 && m.(r).(col) <> 0 then piv := r
       done;
       if !piv = -1 then begin
         d := 0;
         raise Exit
       end;
       if !piv <> col then begin
         let t = m.(col) in
         m.(col) <- m.(!piv);
         m.(!piv) <- t;
         d := Arith.emod (- !d) p
       end;
       d := !d * m.(col).(col) mod p;
       let ip = Arith.invmod m.(col).(col) p in
       for r = col + 1 to n - 1 do
         if m.(r).(col) <> 0 then begin
           let f = m.(r).(col) * ip mod p in
           for j = col to n - 1 do
             m.(r).(j) <- Arith.emod (m.(r).(j) - (f * m.(col).(j))) p
           done
         end
       done
     done
   with Exit -> ());
  Arith.emod !d p

let is_invertible p a = det p a <> 0

let repr m =
  String.concat ";"
    (Array.to_list (Array.map (fun row -> String.concat "," (List.map string_of_int (Array.to_list row))) m))

let group ?name ~p ~dim generators =
  List.iter
    (fun g ->
      if Array.length g <> dim then invalid_arg "Matrix_group.group: wrong dimension";
      if not (is_invertible p g) then invalid_arg "Matrix_group.group: singular generator")
    generators;
  let name = match name with Some s -> s | None -> Printf.sprintf "Mat(%d,GF(%d))" dim p in
  let generators = List.map (reduce p) generators in
  Group.make ~name ~mul:(mul p) ~inv:(inv p) ~id:(identity dim) ~equal ~repr ~generators

let section6_type_a ~p ~a =
  let k = Array.length a in
  ignore p;
  Array.init (k + 1) (fun i ->
      Array.init (k + 1) (fun j ->
          if i < k && j < k then a.(i).(j) else if i = k && j = k then 1 else 0))

let section6_type_b ~p ~k v =
  if Array.length v <> k then invalid_arg "Matrix_group.section6_type_b: vector length";
  ignore p;
  Array.init (k + 1) (fun i ->
      Array.init (k + 1) (fun j ->
          if i = j then 1 else if j = k && i < k then v.(i) else 0))

let section6_group ~p ~a vs =
  let k = Array.length a in
  let gens = section6_type_a ~p ~a :: List.map (fun v -> section6_type_b ~p ~k v) vs in
  group ~name:(Printf.sprintf "Sec6(k=%d,GF(%d))" k p) ~p ~dim:(k + 1) gens

let section6_normal_gens ~p ~k vs = List.map (fun v -> section6_type_b ~p ~k v) vs
