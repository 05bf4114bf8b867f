open Groups

exception Not_converged of { stage : string; attempts : int }

let () =
  Printexc.register_printer (function
    | Not_converged { stage; attempts } ->
        Some
          (Printf.sprintf "Order_finding.Not_converged(%s after %d attempts)" stage attempts)
    | _ -> None)

(* Intern arbitrary string tags as ints for the period finder. *)
let interner () =
  let table : (string, int) Hashtbl.t = Hashtbl.create 64 in
  fun s ->
    match Hashtbl.find_opt table s with
    | Some k -> k
    | None ->
        let k = Hashtbl.length table in
        Hashtbl.add table s k;
        k

let find_period rng pow ~bound ~queries =
  match Quantum.Shor.period_finding rng ~f:pow ~period_bound:bound ~queries ~max_rounds:64 with
  | Some r -> r
  | None -> raise (Not_converged { stage = "period-finding"; attempts = 64 })

let order rng (g : 'a Group.t) x ~bound ~queries =
  let intern = interner () in
  (* memoise powers along the walk: pow is called with many k; use
     repeated squaring per call, cheap at our sizes *)
  let pow k = intern (g.Group.repr (Group.pow g x k)) in
  find_period rng pow ~bound ~queries

let order_mod_hidden rng (g : 'a Group.t) (hiding : 'a Hiding.t) x ~bound =
  let pow k = hiding.Hiding.raw (Group.pow g x k) in
  find_period rng pow ~bound ~queries:hiding.Hiding.quantum

let order_mod_generated rng g n_gens x ~bound ~queries =
  order rng (Quotient.group_mod_generated g n_gens) x ~bound ~queries

let order_mod_generated_watrous rng (g : 'a Group.t) n_gens x ~queries =
  (* Theorem 10, literally: the hiding function maps k to the quantum
     state |x^k N> (Watrous's coset superposition), and Lemma 9's
     Fourier sampling finds its period over Z_m where m is the order
     of x in G (itself found by Shor). *)
  let all = Group.elements g in
  let m = order rng g x ~bound:(List.length all) ~queries in
  let n_elems = Group.closure g n_gens in
  let index = Hashtbl.create (List.length all) in
  List.iteri (fun i e -> Hashtbl.replace index (g.Group.repr e) i) all;
  let dim = List.length all in
  let amp = 1.0 /. sqrt (float_of_int (List.length n_elems)) in
  let coset_state y =
    let v = Linalg.Cvec.make dim in
    List.iter
      (fun n -> v.(Hashtbl.find index (g.Group.repr (g.Group.mul y n))) <- Linalg.Cx.re amp)
      n_elems;
    v
  in
  (* powers of x, precomputed along Z_m *)
  let powers = Array.make m g.Group.id in
  for k = 1 to m - 1 do
    powers.(k) <- g.Group.mul powers.(k - 1) x
  done;
  let f (t : int array) = coset_state powers.(t.(0)) in
  let draw = Quantum.Coset_state.sampler_state_valued ~dims:[| m |] ~f ~queries () in
  let n_table = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace n_table (g.Group.repr e) ()) n_elems;
  let in_n y = Hashtbl.mem n_table (g.Group.repr y) in
  let verified r =
    r >= 1 && m mod r = 0
    && in_n powers.(r mod m)
    && List.for_all (fun p -> not (in_n powers.(r / p))) (Numtheory.Primes.prime_divisors r)
  in
  let batch = Numtheory.Arith.ilog2 (max 2 m) + 4 in
  let rec go attempts samples =
    if attempts > 16 then
      raise (Not_converged { stage = "watrous-sampling"; attempts = 16 });
    let samples = samples @ List.init batch (fun _ -> draw rng) in
    let gens = Quantum.Coset_state.annihilator_subgroup ~dims:[| m |] samples in
    let r = List.fold_left (fun acc v -> Numtheory.Arith.gcd acc v.(0)) m gens in
    if verified r then r else go (attempts + 1) samples
  in
  if verified 1 then 1 else go 0 []
