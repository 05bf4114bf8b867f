type t = { ngens : int; relators : Word.t list }

let of_group (g : 'a Group.t) =
  let gens = Array.of_list g.Group.generators in
  let d = Array.length gens in
  (* BFS over right multiplication by generators, recording for each
     element the tree word from the identity. *)
  let words : (string, Word.t) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let queue = Queue.create () in
  Hashtbl.add words (g.Group.repr g.Group.id) [];
  Queue.add (g.Group.id, []) queue;
  order := [ g.Group.id ];
  let relators = ref [] in
  while not (Queue.is_empty queue) do
    let x, wx = Queue.pop queue in
    for i = 0 to d - 1 do
      let y = g.Group.mul x gens.(i) in
      let key = g.Group.repr y in
      match Hashtbl.find_opt words key with
      | None ->
          let wy = wx @ [ i + 1 ] in
          Hashtbl.add words key wy;
          order := y :: !order;
          Queue.add (y, wy) queue
      | Some wy ->
          (* chord relator: word(x) * g_i * word(y)^-1 *)
          let rel = Word.reduce (wx @ [ i + 1 ] @ Word.inverse wy) in
          if rel <> [] then relators := rel :: !relators
    done
  done;
  let word_of x =
    match Hashtbl.find_opt words (g.Group.repr x) with
    | Some w -> w
    | None -> invalid_arg "Presentation.word_of: element not in group"
  in
  (* dedupe relators *)
  let seen = Hashtbl.create 64 in
  let relators =
    List.filter
      (fun r ->
        if Hashtbl.mem seen r then false
        else begin
          Hashtbl.add seen r ();
          true
        end)
      (List.rev !relators)
  in
  ({ ngens = d; relators }, word_of)

let check_relators g t =
  List.for_all
    (fun r -> g.Group.equal (Word.eval g g.Group.generators r) g.Group.id)
    t.relators
