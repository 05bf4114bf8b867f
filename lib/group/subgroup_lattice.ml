let key_of (g : 'a Group.t) elems =
  String.concat "|" (List.sort String.compare (List.map g.Group.repr elems))

let all_subgroups ?(max_subgroups = 10_000) (g : 'a Group.t) =
  let elements = Group.elements g in
  let found : (string, 'a list) Hashtbl.t = Hashtbl.create 64 in
  let trivial = [ g.Group.id ] in
  Hashtbl.replace found (key_of g trivial) trivial;
  let frontier = Queue.create () in
  Queue.add trivial frontier;
  while not (Queue.is_empty frontier) do
    let s = Queue.pop frontier in
    let s_table = Hashtbl.create (List.length s) in
    List.iter (fun x -> Hashtbl.replace s_table (g.Group.repr x) ()) s;
    List.iter
      (fun x ->
        if not (Hashtbl.mem s_table (g.Group.repr x)) then begin
          let t = Group.closure g (x :: s) in
          let key = key_of g t in
          if not (Hashtbl.mem found key) then begin
            if Hashtbl.length found >= max_subgroups then
              invalid_arg "Subgroup_lattice.all_subgroups: too many subgroups";
            Hashtbl.replace found key t;
            Queue.add t frontier
          end
        end)
      elements
  done;
  Hashtbl.fold (fun _ s acc -> s :: acc) found []
  |> List.sort (fun a b -> Int.compare (List.length a) (List.length b))

let normal_subgroups g =
  List.filter (fun s -> Group.is_normal g s) (all_subgroups g)
