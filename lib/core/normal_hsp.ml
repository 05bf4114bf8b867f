open Groups

type 'a result = {
  relator_images : 'a list;
  generators : 'a list;
  relators_used : int;
  quotient_order : int;
}

let generating_subset (g : 'a Group.t) elems =
  let kept = ref [] in
  let covered = ref (Group.closure_set g []) in
  List.iter
    (fun x ->
      if not (Group.mem g !covered x) then begin
        kept := x :: !kept;
        covered := Group.closure_set g !kept
      end)
    elems;
  List.rev !kept

let solve rng (g : 'a Group.t) (hiding : 'a Hiding.t) =
  ignore rng;
  (* G/N through the secondary encoding, presented on the images of
     G's own generators. *)
  let quotient = Quotient.group_mod g hiding in
  let presentation, _word_of = Presentation.of_group quotient in
  let quotient_order = Group.order quotient in
  (* Substitute the original generators into the relators: each image
     is trivial modulo N, i.e. lies in N. *)
  let relator_images =
    List.map
      (fun r -> Word.eval g g.Group.generators r)
      presentation.Presentation.relators
  in
  (* T is the image of G's generating set, so T generates G and the
     paper's correction set S_0 is empty: N = normal closure of R_0. *)
  Log.debug (fun m ->
      m "normal HSP: |G/N| = %d, %d relators" quotient_order
        (List.length presentation.Presentation.relators));
  let closure =
    Quantum.Metrics.phase Classical (fun () -> Group.normal_closure g relator_images)
  in
  let generators =
    Quantum.Metrics.phase Classical (fun () -> generating_subset g closure)
  in
  Log.debug (fun m -> m "normal HSP: |N| = %d, %d generators" (List.length closure) (List.length generators));
  {
    relator_images;
    generators;
    relators_used = List.length presentation.Presentation.relators;
    quotient_order;
  }
