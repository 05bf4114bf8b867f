type t = int list

let inverse w = List.rev_map (fun k -> -k) w

let reduce w =
  let push acc k =
    match acc with x :: rest when x = -k -> rest | _ -> k :: acc
  in
  List.rev (List.fold_left push [] w)

let eval g gens w =
  let arr = Array.of_list gens in
  List.fold_left
    (fun acc k ->
      if k = 0 || abs k > Array.length arr then invalid_arg "Word.eval: letter out of range";
      let x = arr.(abs k - 1) in
      g.Group.mul acc (if k > 0 then x else g.Group.inv x))
    g.Group.id w

module Slp = struct
  type instr = Gen of int | Mul_inv of int * int

  type nonrec t = instr list

  let eval g gens prog =
    if prog = [] then invalid_arg "Slp.eval: empty program";
    let arr = Array.of_list gens in
    let values = Array.make (List.length prog) g.Group.id in
    List.iteri
      (fun i instr ->
        match instr with
        | Gen k ->
            if k < 0 || k >= Array.length arr then invalid_arg "Slp.eval: bad generator";
            values.(i) <- arr.(k)
        | Mul_inv (j, k) ->
            if j >= i || k >= i || j < 0 || k < 0 then invalid_arg "Slp.eval: forward reference";
            values.(i) <- g.Group.mul values.(j) (g.Group.inv values.(k)))
      prog;
    values.(List.length prog - 1)

  let of_word prefix w =
    (* Build: id line, generator lines as needed, then fold the word.
       Line layout: we append; indices refer into the combined list. *)
    let prog = ref (List.rev prefix) in
    let len () = List.length !prog in
    let push i =
      prog := i :: !prog;
      len () - 1
    in
    (* identity as g0 * g0^-1 needs a generator line; handle empty word
       by an explicit identity construction *)
    match w with
    | [] ->
        let a = push (Gen 0) in
        let _ = push (Mul_inv (a, a)) in
        List.rev !prog
    | _ ->
        let acc = ref None in
        List.iter
          (fun k ->
            let gline = push (Gen (abs k - 1)) in
            let term =
              if k > 0 then begin
                (* need g as a line usable directly *)
                gline
              end
              else begin
                (* g^-1 = identity * g^-1 *)
                let idline =
                  let a = push (Gen (abs k - 1)) in
                  push (Mul_inv (a, a))
                in
                push (Mul_inv (idline, gline))
              end
            in
            match !acc with
            | None -> acc := Some term
            | Some prev ->
                (* prev * term = prev * (term^-1)^-1; build term^-1 first *)
                let idline =
                  let a = push (Gen (abs k - 1)) in
                  push (Mul_inv (a, a))
                in
                let term_inv = push (Mul_inv (idline, term)) in
                acc := Some (push (Mul_inv (prev, term_inv))))
          w;
        List.rev !prog

  let to_word prog =
    let arr = Array.of_list prog in
    let rec expand i =
      match arr.(i) with
      | Gen k -> [ k + 1 ]
      | Mul_inv (j, k) -> expand j @ List.rev_map (fun x -> -x) (expand k)
    in
    if prog = [] then [] else reduce (expand (Array.length arr - 1))
end
