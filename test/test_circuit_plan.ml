(* Tests for the circuit compiler: fused plans, their in-place
   kernels, determinism across job counts / schedulers, and the
   symbolic plan verifier in Analysis.Circuit_check.  The gate-by-gate
   fold [Circuit.run_gates] is the oracle [Circuit.run] must match. *)

open Linalg
open Quantum

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let with_jobs j f =
  let saved = Parallel.jobs () in
  Parallel.set_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs saved) f

let with_sched s f =
  let saved = Parallel.sched () in
  Parallel.set_sched s;
  Fun.protect ~finally:(fun () -> Parallel.set_sched saved) f

let is_err = function Error _ -> true | Ok _ -> false

(* ------------------------------------------------------------------ *)
(* Random circuits: a gate vocabulary hitting every kernel — fused
   1q/2q dense applies, merged diagonal sweeps, composed permutations
   and the generic arity-3 path.                                      *)
(* ------------------------------------------------------------------ *)

let distinct_wires rng n k =
  let chosen = Array.make n false in
  let rec pick acc remaining =
    if remaining = 0 then acc
    else begin
      let w = ref (Random.State.int rng n) in
      while chosen.(!w) do
        w := Random.State.int rng n
      done;
      chosen.(!w) <- true;
      pick (!w :: acc) (remaining - 1)
    end
  in
  pick [] k

let random_circuit rng n len =
  let c = ref (Circuit.empty n) in
  for _ = 1 to len do
    (match Random.State.int rng 11 with
    | 0 -> c := Circuit.gate !c Gates.h [ Random.State.int rng n ]
    | 1 -> c := Circuit.gate !c Gates.x [ Random.State.int rng n ]
    | 2 ->
        c :=
          Circuit.gate !c
            (Gates.phase (Random.State.float rng (2.0 *. Float.pi)))
            [ Random.State.int rng n ]
    | 3 -> c := Circuit.gate !c Gates.t [ Random.State.int rng n ]
    | 4 -> c := Circuit.gate !c Gates.cnot (distinct_wires rng n 2)
    | 5 -> c := Circuit.gate !c Gates.swap (distinct_wires rng n 2)
    | 6 ->
        c :=
          Circuit.gate !c
            (Gates.controlled (Gates.rk (1 + Random.State.int rng 4)))
            (distinct_wires rng n 2)
    | 7 when n >= 3 ->
        (* controlled-swap: a 3-wire permutation, generic perm kernel *)
        c := Circuit.gate !c (Gates.controlled Gates.swap) (distinct_wires rng n 3)
    | 8 when n >= 3 ->
        (* doubly controlled rotation: diagonal but over the arity-2
           kernel cap, so it must run as a generic dense apply *)
        c :=
          Circuit.gate !c
            (Gates.controlled (Gates.controlled (Gates.rk 2)))
            (distinct_wires rng n 3)
    | 9 ->
        (* dense and not symmetric: the 2x2 kernel must not transpose *)
        c :=
          Circuit.gate !c
            (Cmat.mul Gates.h (Gates.phase (Random.State.float rng 6.0)))
            [ Random.State.int rng n ]
    | 10 ->
        (* dense, not symmetric, and not invariant under a wire swap:
           the 4x4 kernel must keep the listed wire order *)
        c :=
          Circuit.gate !c
            (Cmat.mul (Cmat.dft 4) (Cmat.kron (Gates.phase (Random.State.float rng 6.0)) Gates.h))
            (distinct_wires rng n 2)
    | _ -> c := Circuit.gate !c Gates.h [ Random.State.int rng n ])
  done;
  !c

let random_state rng n =
  let dims = Array.make n 2 in
  let total = 1 lsl n in
  let v =
    Array.init total (fun _ ->
        Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))
  in
  State.of_amplitudes dims v

(* ------------------------------------------------------------------ *)
(* qcheck properties: plan == circuit on random circuits              *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~count:50 ~name:"fused run = unfused run on random circuits"
      (int_bound 100000) (fun seed ->
        let rng = Random.State.make [| seed; 0xf0_5e |] in
        let n = 3 + Random.State.int rng 3 in
        let c = random_circuit rng n (10 + Random.State.int rng 30) in
        let st = random_state rng n in
        State.approx_equal ~eps:1e-9 (Circuit.run_gates c st) (Circuit.run c st));
    Test.make ~count:50 ~name:"check_plan accepts every compiled random circuit"
      (int_bound 100000) (fun seed ->
        let rng = Random.State.make [| seed; 0x9_1a_a5 |] in
        let n = 2 + Random.State.int rng 4 in
        let c = random_circuit rng n (5 + Random.State.int rng 40) in
        match Analysis.Circuit_check.check_plan c (Circuit.compile c) with
        | Ok () -> true
        | Error _ -> false);
    Test.make ~count:30 ~name:"fused run = unfused run on (approximate) qft"
      (int_bound 100000) (fun seed ->
        let rng = Random.State.make [| seed; 0xaf5e |] in
        let n = 3 + Random.State.int rng 5 in
        let c =
          if Random.State.bool rng then Circuit.qft n
          else Circuit.qft ~approx_threshold:(2 + Random.State.int rng n) n
        in
        let st = random_state rng n in
        State.approx_equal ~eps:1e-9 (Circuit.run_gates c st) (Circuit.run c st)
        && Analysis.Circuit_check.check_plan c (Circuit.compile c) = Ok ());
  ]

(* ------------------------------------------------------------------ *)
(* Determinism: the plan path at every job count and scheduler gives
   the gate-by-gate run's measurement digest and bit-identical
   amplitudes (the E15 bench contract, in miniature)                  *)
(* ------------------------------------------------------------------ *)

let qft_run run ~jobs ~sched =
  with_jobs jobs (fun () ->
      with_sched sched (fun () ->
          run (Circuit.qft 10) (random_state (Random.State.make [| 0x515e |]) 10)))

let outcome_digest st =
  let st = ref st in
  let rng = Random.State.make [| 0x515e; 0xd16 |] in
  let buf = Buffer.create 64 in
  List.iter
    (fun wires ->
      let outcome, st' = State.measure rng !st ~wires in
      st := st';
      Array.iter
        (fun v ->
          Buffer.add_string buf (string_of_int v);
          Buffer.add_char buf ',')
        outcome)
    [ [ 0; 3; 7 ]; [ 1; 2 ]; [ 4; 5; 6; 8; 9 ] ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let bits_digest st =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun (z : Cx.t) ->
      Buffer.add_int64_le buf (Int64.bits_of_float z.Complex.re);
      Buffer.add_int64_le buf (Int64.bits_of_float z.Complex.im))
    (State.amplitudes st);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_digests_across_jobs_sched () =
  let reference = qft_run Circuit.run_gates ~jobs:1 ~sched:Parallel.Fifo in
  let reference_digest = outcome_digest reference in
  let plan_bits = bits_digest (qft_run Circuit.run ~jobs:1 ~sched:Parallel.Fifo) in
  List.iter
    (fun jobs ->
      List.iter
        (fun sched ->
          let st = qft_run Circuit.run ~jobs ~sched in
          let label = Printf.sprintf "jobs=%d shuffle=%b" jobs (sched = Parallel.Shuffle) in
          checks ("outcome digest " ^ label) reference_digest (outcome_digest st);
          checks ("amplitude bits " ^ label) plan_bits (bits_digest st);
          checkb ("within 1e-9 of run_gates " ^ label) true
            (State.approx_equal ~eps:1e-9 reference st))
        [ Parallel.Fifo; Parallel.Shuffle ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Compiler structure: the QFT collapses as documented               *)
(* ------------------------------------------------------------------ *)

let stat plan key =
  match List.assoc_opt key (Circuit_plan.stats plan) with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "stats has no %s entry" key

let test_qft8_plan_shape () =
  let plan = Circuit.compile (Circuit.qft 8) in
  checki "source gates" (Analysis.Circuit_check.qft_exact_gate_count 8)
    (Circuit_plan.gate_count plan);
  (* 8 Hadamards stay as 1q dense applies; the 28 controlled rotations
     merge into 7 diagonal sweeps (one per H boundary); the 4 trailing
     swaps compose into a single permutation pass. *)
  checki "steps" 16 (Circuit_plan.step_count plan);
  checki "1q fused" 8 (stat plan "fused_1q");
  checki "diag passes" 7 (stat plan "diag_passes");
  checki "diag gates" 28 (stat plan "diag_gates");
  checki "perm passes" 1 (stat plan "perm_passes");
  checki "perm gates" 4 (stat plan "perm_gates");
  checkb "bytes accounted" true (Circuit_plan.bytes plan > 0)

let test_same_wire_chain_fuses () =
  let c =
    List.fold_left
      (fun c m -> Circuit.gate c m [ 0 ])
      (Circuit.empty 2)
      [ Gates.h; Gates.y; Gates.h; Gates.y ]
  in
  let plan = Circuit.compile c in
  match plan.Circuit_plan.steps with
  | [ Circuit_plan.Fused { wires = [ 0 ]; mat; count = 4 } ] ->
      (* latest gate left-multiplies: Y . H . Y . H *)
      let expected =
        Cmat.mul Gates.y (Cmat.mul Gates.h (Cmat.mul Gates.y Gates.h))
      in
      checkb "chain product" true (Cmat.approx_equal ~eps:1e-12 mat expected)
  | _ -> Alcotest.fail "same-wire chain did not fuse to one step"

(* ------------------------------------------------------------------ *)
(* O(n) circuit construction (the seed's O(n^2) gate/seq fix)        *)
(* ------------------------------------------------------------------ *)

let test_construction_order () =
  let a = Circuit.gate (Circuit.gate (Circuit.empty 2) Gates.h [ 0 ]) Gates.x [ 1 ] in
  (match Circuit.ops a with
  | [ Circuit.Gate (_, [ 0 ]); Circuit.Gate (_, [ 1 ]) ] -> ()
  | _ -> Alcotest.fail "ops not in application order");
  let b = Circuit.gate (Circuit.empty 2) Gates.z [ 0 ] in
  (match Circuit.ops (Circuit.seq a b) with
  | [ Circuit.Gate (_, [ 0 ]); Circuit.Gate (_, [ 1 ]); Circuit.Gate (_, [ 0 ]) ] -> ()
  | _ -> Alcotest.fail "seq not in application order");
  (match Circuit.ops (Circuit.inverse a) with
  | [ Circuit.Gate (m1, [ 1 ]); Circuit.Gate (m0, [ 0 ]) ] ->
      checkb "inverse adjoints x" true
        (Cmat.approx_equal ~eps:1e-12 m1 (Cmat.adjoint Gates.x));
      checkb "inverse adjoints h" true
        (Cmat.approx_equal ~eps:1e-12 m0 (Cmat.adjoint Gates.h))
  | _ -> Alcotest.fail "inverse not reversed");
  let big =
    let c = ref (Circuit.empty 1) in
    for _ = 1 to 2000 do
      c := Circuit.gate !c Gates.h [ 0 ]
    done;
    !c
  in
  checki "gate_count O(1)" 2000 (Circuit.gate_count big);
  checki "ops materialises all" 2000 (List.length (Circuit.ops big))

let test_fingerprint_keys_structure () =
  let c1 = Circuit.gate (Circuit.empty 2) (Gates.phase 0.25) [ 0 ] in
  let c2 = Circuit.gate (Circuit.empty 2) (Gates.phase 0.25) [ 0 ] in
  let c3 = Circuit.gate (Circuit.empty 2) (Gates.phase 0.250000001) [ 0 ] in
  let c4 = Circuit.gate (Circuit.empty 2) (Gates.phase 0.25) [ 1 ] in
  checks "equal circuits share" (Circuit.fingerprint c1) (Circuit.fingerprint c2);
  checkb "entry bits matter" true (Circuit.fingerprint c1 <> Circuit.fingerprint c3);
  checkb "wires matter" true (Circuit.fingerprint c1 <> Circuit.fingerprint c4)

(* ------------------------------------------------------------------ *)
(* Plan verifier: positive and negative fixtures                      *)
(* ------------------------------------------------------------------ *)

let map_first_step f plan =
  let seen = ref false in
  let steps =
    List.map
      (fun s ->
        if !seen then s
        else
          match f s with
          | Some s' ->
              seen := true;
              s'
          | None -> s)
      plan.Circuit_plan.steps
  in
  checkb "fixture found a step to corrupt" true !seen;
  { plan with Circuit_plan.steps }

let test_check_plan_positive () =
  List.iter
    (fun c ->
      match Analysis.Circuit_check.check_plan c (Circuit.compile c) with
      | Ok () -> ()
      | Error vs ->
          Alcotest.failf "plan rejected: %s"
            (String.concat "; "
               (List.map
                  (fun v ->
                    Format.asprintf "%a" Analysis.Circuit_check.pp_plan_violation v)
                  vs)))
    [
      Circuit.empty 3;
      Circuit.qft 4;
      Circuit.qft 8;
      Circuit.qft ~approx_threshold:2 6;
      random_circuit (Random.State.make [| 0xca_fe |]) 5 40;
    ]

let test_check_plan_negative () =
  let c = Circuit.qft 4 in
  let plan = Circuit.compile c in
  let corrupt_mat m =
    let m' = Array.map Array.copy m in
    m'.(0).(0) <- Cx.add m'.(0).(0) (Cx.re 0.5);
    m'
  in
  let bad_fused =
    map_first_step
      (function
        | Circuit_plan.Fused { wires; mat; count } ->
            Some (Circuit_plan.Fused { wires; mat = corrupt_mat mat; count })
        | _ -> None)
      plan
  in
  checkb "corrupt fused matrix caught" true
    (is_err (Analysis.Circuit_check.check_plan c bad_fused));
  let bad_diag =
    map_first_step
      (function
        | Circuit_plan.Diag { gates = (w, d) :: rest } ->
            let d' = Array.copy d in
            d'.(Array.length d' - 1) <- Cx.make 0.5 0.5;
            Some (Circuit_plan.Diag { gates = (w, d') :: rest })
        | _ -> None)
      plan
  in
  checkb "corrupt diagonal table caught" true
    (is_err (Analysis.Circuit_check.check_plan c bad_diag));
  let bad_perm =
    map_first_step
      (function
        | Circuit_plan.Perm { wires; perm; count } ->
            (* still a bijection: only the deep composition check can
               tell it apart from the real table *)
            let p = Array.copy perm in
            let t = p.(0) in
            p.(0) <- p.(1);
            p.(1) <- t;
            Some (Circuit_plan.Perm { wires; perm = p; count })
        | _ -> None)
      plan
  in
  checkb "swapped permutation entries caught" true
    (is_err (Analysis.Circuit_check.check_plan c bad_perm));
  let non_bijection =
    map_first_step
      (function
        | Circuit_plan.Perm { wires; perm; count } ->
            let p = Array.copy perm in
            p.(0) <- p.(1);
            Some (Circuit_plan.Perm { wires; perm = p; count })
        | _ -> None)
      plan
  in
  checkb "non-bijection table caught" true
    (is_err (Analysis.Circuit_check.check_plan c non_bijection));
  let truncated =
    match List.rev plan.Circuit_plan.steps with
    | _ :: rest -> { plan with Circuit_plan.steps = List.rev rest }
    | [] -> plan
  in
  checkb "dropped step leaves trailing gates" true
    (is_err (Analysis.Circuit_check.check_plan c truncated));
  checkb "source_gates mismatch caught" true
    (is_err
       (Analysis.Circuit_check.check_plan c
          { plan with Circuit_plan.source_gates = plan.Circuit_plan.source_gates + 1 }));
  checkb "register size mismatch caught" true
    (is_err
       (Analysis.Circuit_check.check_plan c { plan with Circuit_plan.num_qubits = 5 }));
  (* a malformed circuit built via of_ops must not match a real plan *)
  let wrong =
    Circuit.of_ops 4
      (List.filteri (fun i _ -> i > 0) (Circuit.ops c))
  in
  checkb "circuit missing a gate caught" true
    (is_err (Analysis.Circuit_check.check_plan wrong plan))

(* ------------------------------------------------------------------ *)
(* Guard rails: step validation, plane lengths, dispatch            *)
(* ------------------------------------------------------------------ *)

(* Each malformed step is hand-built (the plan record is public) and
   must be refused before any kernel indexes the planes unchecked. *)
let test_step_validation () =
  let n = 3 in
  let planes () = (Array.make 8 0.0, Array.make 8 0.0) in
  let expect label msg step =
    let re, im = planes () in
    Alcotest.check_raises label
      (Invalid_argument ("Circuit_plan.run_planes: " ^ msg))
      (fun () ->
        ignore
          (Circuit_plan.run_planes
             { Circuit_plan.num_qubits = n; steps = [ step ]; source_gates = 1 }
             ~re ~im))
  in
  let fused wires mat = Circuit_plan.Fused { wires; mat; count = 1 } in
  let perm wires perm = Circuit_plan.Perm { wires; perm; count = 1 } in
  let diag gates = Circuit_plan.Diag { gates } in
  let d2 = [| Cx.one; Cx.one; Cx.one; Cx.one |] in
  expect "fused wire out of range" "wire out of range" (fused [ 3 ] Gates.h);
  expect "fused negative wire" "wire out of range" (fused [ -1 ] Gates.h);
  expect "fused duplicate wires" "duplicate wires" (fused [ 1; 1 ] Gates.cnot);
  expect "fused empty wires" "empty wire list" (fused [] (Cmat.identity 1));
  expect "fused 1-wire matrix too big" "matrix dimension does not match wire count"
    (fused [ 0 ] Gates.cnot);
  expect "fused 2-wire matrix too small" "matrix dimension does not match wire count"
    (fused [ 0; 1 ] Gates.h);
  expect "fused ragged matrix" "matrix dimension does not match wire count"
    (fused [ 0 ] [| [| Cx.one; Cx.zero |]; [| Cx.one |] |]);
  expect "perm short table" "permutation length does not match wire count"
    (perm [ 0; 1 ] [| 0; 1 |]);
  expect "perm entry out of range" "permutation entry out of range" (perm [ 0 ] [| 0; 2 |]);
  expect "perm wire out of range" "wire out of range" (perm [ 0; 5 ] [| 0; 1; 2; 3 |]);
  expect "diag duplicate wires" "duplicate wires" (diag [ ([ 2; 2 ], d2) ]);
  expect "diag wire out of range" "wire out of range" (diag [ ([ 7 ], [| Cx.one; Cx.one |]) ]);
  expect "diag table too short" "diagonal table length does not match wire count"
    (diag [ ([ 0; 1 ], [| Cx.one; Cx.one |]) ]);
  expect "diag arity 3" "diagonal factor on more than 2 wires"
    (diag [ ([ 0; 1; 2 ], Array.make 8 Cx.one) ]);
  (* a malformed step anywhere refuses the whole plan up front *)
  let re, im = planes () in
  re.(0) <- 1.0;
  Alcotest.check_raises "late bad step"
    (Invalid_argument "Circuit_plan.run_planes: wire out of range") (fun () ->
      ignore
        (Circuit_plan.run_planes
           { Circuit_plan.num_qubits = n; steps = [ fused [ 0 ] Gates.h; fused [ 4 ] Gates.h ];
             source_gates = 2 }
           ~re ~im));
  checkb "inputs untouched" true (re.(0) = 1.0 && Array.for_all (fun x -> x = 0.0) im);
  (* 1 lsl 70 wraps on 64-bit: the register size is refused before the
     plane-length check could be fooled *)
  let re, im = planes () in
  Alcotest.check_raises "oversized register"
    (Invalid_argument "Circuit_plan.run_planes: num_qubits out of range") (fun () ->
      ignore
        (Circuit_plan.run_planes
           { Circuit_plan.num_qubits = 67; steps = [ fused [ 0 ] Gates.h ]; source_gates = 1 }
           ~re ~im))

let test_run_planes_validation () =
  let plan = Circuit.compile (Circuit.qft 3) in
  Alcotest.check_raises "plane length"
    (Invalid_argument "Circuit_plan.run_planes: plane length mismatch") (fun () ->
      ignore (Circuit_plan.run_planes plan ~re:(Array.make 4 0.0) ~im:(Array.make 4 0.0)))

let test_run_plan_dispatch () =
  let plan = Circuit.compile (Circuit.qft 3) in
  let dense = State.create ~backend:Backend.Dense (Array.make 3 2) in
  checkb "dense state runs plans" true (State.run_plan plan dense <> None);
  let sparse = State.create ~backend:Backend.Sparse (Array.make 3 2) in
  checkb "sparse state declines" true (State.run_plan plan sparse = None);
  let qutrit = State.create ~backend:Backend.Dense [| 3; 3; 3 |] in
  checkb "non-qubit register rejected" true
    (try
       ignore (State.run_plan plan qutrit);
       false
     with Invalid_argument _ -> true);
  (* Circuit.run picks its path from State.backend: sparse folds gates *)
  let c = Circuit.qft 3 in
  let st = State.of_basis ~backend:Backend.Sparse (Array.make 3 2) [| 1; 0; 1 |] in
  Metrics.reset ();
  let out = Circuit.run c st in
  checkb "sparse run stays sparse" true (State.backend out = Backend.Sparse);
  checki "sparse run compiles no plan" 0 (Metrics.snapshot ()).Metrics.plans_compiled;
  checkb "sparse run = run_gates" true
    (State.approx_equal ~eps:1e-12 out (Circuit.run_gates c st))

let test_plan_ledger () =
  Metrics.reset ();
  let c = Circuit.qft 6 in
  let st = State.create ~backend:Backend.Dense (Array.make 6 2) in
  let by_gates = Circuit.run_gates c st in
  let gate_by_gate = Metrics.snapshot () in
  checki "run_gates compiles no plan" 0 gate_by_gate.Metrics.plans_compiled;
  Metrics.reset ();
  let by_plan = Circuit.run c st in
  let snap = Metrics.snapshot () in
  checkb "states agree" true (State.approx_equal ~eps:1e-9 by_gates by_plan);
  checki "gate_apps identical across paths" gate_by_gate.Metrics.gate_apps snap.Metrics.gate_apps;
  checki "one plan compiled" 1 snap.Metrics.plans_compiled;
  checkb "fused passes recorded" true (snap.Metrics.fused_passes > 0);
  checki "fused gates = source gates" (Circuit.gate_count c) snap.Metrics.fused_gates

let () =
  Alcotest.run "circuit_plan"
    [
      ( "compiler",
        [
          Alcotest.test_case "qft-8 plan shape" `Quick test_qft8_plan_shape;
          Alcotest.test_case "same-wire chain fuses" `Quick test_same_wire_chain_fuses;
          Alcotest.test_case "construction order" `Quick test_construction_order;
          Alcotest.test_case "fingerprint structure" `Quick test_fingerprint_keys_structure;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "digests across jobs/sched" `Quick test_digests_across_jobs_sched;
          Alcotest.test_case "ledger plan vs gates" `Quick test_plan_ledger;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts compiled plans" `Quick test_check_plan_positive;
          Alcotest.test_case "rejects corrupted plans" `Quick test_check_plan_negative;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "argument validation" `Quick test_step_validation;
          Alcotest.test_case "plane staging validation" `Quick test_run_planes_validation;
          Alcotest.test_case "state dispatch" `Quick test_run_plan_dispatch;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
