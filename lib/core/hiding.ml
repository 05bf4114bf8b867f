open Groups

type 'a t = {
  raw : 'a -> int;
  classical : int ref;
  quantum : Quantum.Query.t;
}

let eval t x =
  incr t.classical;
  t.raw x

let in_hidden_subgroup g t x =
  ignore g;
  Int.equal (eval t x) (eval t g.Group.id)

let of_fun raw = { raw; classical = ref 0; quantum = Quantum.Query.create () }

let of_subgroup (g : 'a Group.t) gens =
  let h_elems = Group.closure g gens in
  let labels : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let next = ref 0 in
  (* Label cosets in BFS order of the ambient group: each unlabelled
     element starts a fresh coset xH. *)
  List.iter
    (fun x ->
      if not (Hashtbl.mem labels (g.Group.repr x)) then begin
        let label = !next in
        incr next;
        List.iter
          (fun h ->
            let key = g.Group.repr (g.Group.mul x h) in
            if not (Hashtbl.mem labels key) then Hashtbl.add labels key label)
          h_elems
      end)
    (Group.elements g);
  of_fun (fun x ->
      match Hashtbl.find_opt labels (g.Group.repr x) with
      | Some l -> l
      | None -> invalid_arg "Hiding.of_subgroup: element outside the group")

let total_queries t = (!(t.classical), Quantum.Query.count t.quantum)

let reset t =
  t.classical := 0;
  Quantum.Query.reset t.quantum
