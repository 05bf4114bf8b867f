open Groups

(* Failure taxonomy for callers that must keep running after a solver
   throws (the service layer): retryable convergence failures vs
   rejected requests vs genuine bugs. *)
type failure =
  | Retryable of string  (* probabilistic loop ran out of attempts *)
  | Rejected of string  (* invalid request: caps, malformed dims, ... *)
  | Crashed of string  (* anything else — a bug, not a request problem *)

let classify_failure = function
  | Order_finding.Not_converged { stage; attempts } ->
      Retryable (Printf.sprintf "%s did not converge after %d attempts" stage attempts)
  | Invalid_argument msg -> Rejected msg
  | exn -> Crashed (Printexc.to_string exn)

let failure_to_string = function
  | Retryable msg -> "retryable: " ^ msg
  | Rejected msg -> "rejected: " ^ msg
  | Crashed msg -> "crashed: " ^ msg

type report = {
  instance : string;
  algorithm : string;
  ok : bool;
  classical_queries : int;
  quantum_queries : int;
  group_order : int;
  subgroup_order : int;
  metrics : Quantum.Metrics.snapshot;
}

let run ~algorithm (inst : 'a Instances.t) ~solver =
  Hiding.reset inst.Instances.hiding;
  Quantum.Metrics.reset ();
  let gens = solver inst in
  let metrics = Quantum.Metrics.snapshot () in
  let classical_queries, quantum_queries = Hiding.total_queries inst.Instances.hiding in
  {
    instance = inst.Instances.name;
    algorithm;
    ok = Group.subgroup_equal inst.Instances.group gens inst.Instances.hidden_gens;
    classical_queries;
    quantum_queries;
    group_order = Group.order inst.Instances.group;
    subgroup_order = List.length (Group.closure inst.Instances.group inst.Instances.hidden_gens);
    metrics;
  }

(* Solvers with no Instances wrapper (order finding, membership): the
   check is closed-form and the report carries no enumerated orders. *)
let closed_form ~instance ~algorithm f =
  Quantum.Metrics.reset ();
  let queries = Quantum.Query.create () in
  let ok, answer = f queries in
  let report =
    {
      instance;
      algorithm;
      ok;
      classical_queries = 0;
      quantum_queries = Quantum.Query.count queries;
      group_order = -1;
      subgroup_order = -1;
      metrics = Quantum.Metrics.snapshot ();
    }
  in
  (report, answer)

(* The one-instance-per-theorem set, shared by the bench smoke gate and
   the configuration-matrix test.  Instances are drawn from [rng] in
   list order, each immediately before its solve, so a fixed seed pins
   every row. *)
type theorem_run = {
  thm : string;
  order : int;
  quotient : int;
  commutator : int;
  nu : int;
  report : report;
  answer : string;
}

let render repr gens = String.concat ";" (List.map repr gens)

let solved ~thm ~order ?(quotient = 1) ?(commutator = 1) ?(nu = 1) ~algorithm inst solver =
  let answer = ref "" in
  let report =
    run ~algorithm inst ~solver:(fun i ->
        let gens = solver i in
        answer := render i.Instances.group.Group.repr gens;
        gens)
  in
  { thm; order; quotient; commutator; nu; report; answer = !answer }

(* Theorems 4 and 6 go through [closed_form]. *)
let closed ~thm ~order ~instance ~algorithm f =
  let report, answer = closed_form ~instance ~algorithm f in
  { thm; order; quotient = 1; commutator = 1; nu = 1; report; answer }

let theorem_runs rng =
  let simon = Instances.simon ~n:4 ~mask:[| 1; 0; 1; 1 |] in
  let t3 =
    solved ~thm:"3" ~order:16 ~algorithm:"abelian" simon (fun i ->
        Abelian_hsp.solve rng i.Instances.group i.Instances.hiding)
  in
  let t8 =
    solved ~thm:"8" ~order:24 ~quotient:4 ~algorithm:"normal"
      (Instances.dihedral_rotation ~n:12 ~d:2) (fun i ->
        (Normal_hsp.solve rng i.Instances.group i.Instances.hiding).Normal_hsp.generators)
  in
  let t11 =
    let inst = Instances.heisenberg_random rng ~p:3 ~m:1 in
    solved ~thm:"11" ~order:27 ~commutator:3 ~algorithm:"commutator" inst (fun i ->
        Small_commutator.solve_gens rng i.Instances.group i.Instances.hiding)
  in
  let t13g =
    let inst = Instances.wreath_random rng ~k:2 in
    solved ~thm:"13g" ~order:32 ~quotient:2 ~algorithm:"thm13-general" inst (fun i ->
        (Elem_abelian2.solve_general rng i.Instances.group ~n_gens:(Wreath.base_gens 2)
           i.Instances.hiding)
          .Elem_abelian2.generators)
  in
  let t13c =
    let inst = Instances.semidirect_random rng ~n:4 ~m:2 in
    solved ~thm:"13c" ~order:32 ~quotient:2 ~nu:1 ~algorithm:"thm13-cyclic" inst (fun i ->
        (Elem_abelian2.solve_cyclic rng i.Instances.group ~n_gens:(Semidirect.base_gens ~n:4)
           i.Instances.hiding)
          .Elem_abelian2.generators)
  in
  let t4 =
    closed ~thm:"4" ~order:15 ~instance:"ord(2 mod 15)" ~algorithm:"shor" (fun queries ->
        let o =
          Quantum.Shor.find_order rng
            ~pow:(fun k -> Numtheory.Arith.powmod 2 k 15)
            ~order_bound:15 ~queries
        in
        (o = Some 4, match o with Some r -> string_of_int r | None -> "none"))
  in
  let t6 =
    closed ~thm:"6" ~order:36 ~instance:"Z12xZ18" ~algorithm:"membership" (fun queries ->
        let z = Cyclic.product [| 12; 18 |] in
        match
          Membership.express rng z ~hs:[ [| 2; 3 |]; [| 0; 6 |] ] [| 4; 0 |] ~order_bound:36
            ~queries
        with
        | Some w -> (true, render string_of_int (Array.to_list w.Membership.exponents))
        | None -> (false, "none"))
  in
  [ t3; t8; t11; t13g; t13c; t4; t6 ]
