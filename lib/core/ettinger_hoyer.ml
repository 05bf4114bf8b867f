open Groups

type result = { slope : int; candidates_scanned : int }

(* log-likelihood of slope d' given samples drawn from
   P(y,b) ∝ cos^2(pi (d y / n + b / 2)). *)
let log_likelihood n samples d' =
  List.fold_left
    (fun acc (y, b) ->
      let c =
        cos ((Float.pi *. float_of_int (d' * y) /. float_of_int n)
             +. (Float.pi *. float_of_int b /. 2.0))
      in
      acc +. log (max 1e-12 (c *. c)))
    0.0 samples

let solve rng ~n (hiding : Dihedral.elt Hiding.t) =
  let g = Dihedral.group n in
  let f1 = Hiding.eval hiding g.Group.id in
  let batch = (4 * Numtheory.Arith.ilog2 (max 2 n)) + 8 in
  (* One sampler per solve: one O(|G|) coset expansion of the
     Z_n x Z_2 register encoding of D_n, shared by every batch. *)
  let draw =
    Quantum.Coset_state.sampler ~dims:[| n; 2 |]
      ~f:(fun x -> hiding.Hiding.raw { Dihedral.rot = x.(0); flip = x.(1) = 1 })
      ~queries:hiding.Hiding.quantum ()
  in
  let sample () =
    let y = draw rng in
    (y.(0), y.(1))
  in
  let rec go retries samples scanned =
    if retries > 6 then None
    else begin
      let samples = samples @ List.init batch (fun _ -> sample ()) in
      (* Exhaustive maximum-likelihood scan over all n candidate
         slopes: the exponential-time classical post-processing.  The
         distribution is invariant under d <-> n - d (cos^2 is even up
         to the parity flip), so the maximiser can be tied; verify
         every near-maximal candidate with O(1) classical queries. *)
      let lls =
        Quantum.Metrics.phase Classical (fun () ->
            Array.init n (fun d' -> log_likelihood n samples d'))
      in
      let best_ll = Array.fold_left max neg_infinity lls in
      let candidates =
        List.filter (fun d' -> lls.(d') >= best_ll -. 1e-6) (List.init n Fun.id)
      in
      let scanned = scanned + n in
      match
        List.find_opt
          (fun d' -> Int.equal (Hiding.eval hiding (Dihedral.reflection n d')) f1)
          candidates
      with
      | Some d' -> Some { slope = d'; candidates_scanned = scanned }
      | None -> go (retries + 1) samples scanned
    end
  in
  go 0 [] 0
