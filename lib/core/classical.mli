open Groups

(** Classical baselines.

    No sub-exponential classical black-box algorithm is known for the
    HSP; the generic upper bound simply reads the whole group.  These
    are the comparison points for every experiment's query counts. *)

val brute_force : 'a Group.t -> 'a Hiding.t -> 'a list
(** [H = { x : f x = f 1 }] by scanning the enumerated group: exactly
    [|G| + 1] classical queries.  Returns a reduced generating set. *)
