open Groups

let brute_force (g : 'a Group.t) (hiding : 'a Hiding.t) =
  let f1 = Hiding.eval hiding g.Group.id in
  let members = List.filter (fun x -> Int.equal (Hiding.eval hiding x) f1) (Group.elements g) in
  Normal_hsp.generating_subset g members
