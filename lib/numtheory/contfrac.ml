let expand p q =
  if q < 1 then invalid_arg "Contfrac.expand: q < 1";
  let rec go p q acc =
    let a = if p >= 0 then p / q else -(((-p) + q - 1) / q) in
    let r = p - (a * q) in
    if r = 0 then List.rev (a :: acc) else go q r (a :: acc)
  in
  go p q []

let convergents p q =
  let quotients = expand p q in
  (* h_n = a_n h_{n-1} + h_{n-2}, same for k. *)
  let rec go quotients h1 h2 k1 k2 acc =
    match quotients with
    | [] -> List.rev acc
    | a :: rest ->
        let h = (a * h1) + h2 and k = (a * k1) + k2 in
        go rest h h1 k k1 ((h, k) :: acc)
  in
  go quotients 1 0 0 1 []
