(* Cost-ledger observability and correctness-fix regressions.

   Covers the metrics ledger ({!Quantum.Metrics}), the discrete-sampler
   fallback fix, and query-counter reset semantics across
   {!Hsp.Runner.run} invocations. *)

open Hsp
open Quantum
open Linalg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Every test starts from a clean global ledger and the default
   backend, whatever the previous test left behind. *)
let setup () =
  Metrics.reset ();
  Backend.set_default None

let rng () = Random.State.make [| 42 |]

(* ------------------------------------------------------------------ *)
(* sample_discrete: under-normalised and partial distributions        *)
(* ------------------------------------------------------------------ *)

(* Regression: with sum probs < r the old fallback returned the *last*
   index even when its probability was zero.  [|0.3; 0.0|] triggers it
   on every draw with r >= 0.3: index 1 must never come back. *)
let test_sample_never_zero_prob () =
  setup ();
  let rng = rng () in
  for _ = 1 to 500 do
    checki "under-normalised picks the nonzero index" 0
      (Backend.sample_discrete rng [| 0.3; 0.0 |])
  done;
  (* zero-probability head: index 0 must never be chosen *)
  for _ = 1 to 500 do
    checki "leading zero skipped" 1 (Backend.sample_discrete rng [| 0.0; 0.5 |])
  done;
  (* interior zero, under-normalised tail *)
  for _ = 1 to 500 do
    let i = Backend.sample_discrete rng [| 0.2; 0.0; 0.3 |] in
    checkb "interior zero never sampled" true (i = 0 || i = 2)
  done

let test_sample_degenerate () =
  setup ();
  let rng = rng () in
  Alcotest.check_raises "empty distribution"
    (Invalid_argument "Backend.sample_discrete: empty distribution") (fun () ->
      ignore (Backend.sample_discrete rng [||]));
  Alcotest.check_raises "all-zero distribution"
    (Invalid_argument "Backend.sample_discrete: zero distribution") (fun () ->
      ignore (Backend.sample_discrete rng [| 0.0; 0.0 |]))

(* ------------------------------------------------------------------ *)
(* Ledger: runs of one circuit agree on counts across backends        *)
(* ------------------------------------------------------------------ *)

(* The uniform state built from subgroup structure, a single-wire DFT,
   then either a measurement alone (the Fourier-sampling pipeline every
   backend runs) or first a gate, a basis map and an oracle (dense
   only: a symbolic start demotes at the DFT). *)
let run_circuit ~gates backend =
  let r = rng () in
  let dims = [| 4; 3; 2 |] in
  let sub = Backend_symbolic.Subgroup.full dims in
  let st = State.of_coset ~backend sub ~rep:[| 0; 0; 0 |] in
  let st = State.fourier st ~wires:[ 0 ] ~inverse:false in
  let st =
    if not gates then st
    else
      let st = State.apply_wire st ~wire:1 (Cmat.dft 3) in
      let st = State.apply_basis_map st (fun x -> [| x.(0); x.(1); (x.(2) + 1) mod 2 |]) in
      State.apply_oracle_add st ~in_wires:[ 0 ] ~out_wire:2 ~f:(fun x -> x.(0) mod 2)
  in
  ignore (State.measure_all r st)

let counts (m : Metrics.snapshot) =
  ( m.Metrics.gate_apps, m.Metrics.dft_apps, m.Metrics.basis_maps, m.Metrics.oracle_ops,
    m.Metrics.measurements, m.Metrics.states_created )

let ledger_of ~gates backend =
  setup ();
  run_circuit ~gates backend;
  Metrics.snapshot ()

let test_counts_identical_across_backends () =
  let dense = ledger_of ~gates:true Backend.Dense in
  let symbolic = ledger_of ~gates:true Backend.Symbolic in
  checkb "dense and demoted symbolic counters agree" true (counts dense = counts symbolic);
  checki "one gate" 1 dense.Metrics.gate_apps;
  checki "one dft" 1 dense.Metrics.dft_apps;
  checki "one basis map" 1 dense.Metrics.basis_maps;
  checki "one oracle op" 1 dense.Metrics.oracle_ops;
  checki "one measurement" 1 dense.Metrics.measurements;
  checki "symbolic demoted once" 1 symbolic.Metrics.symbolic_demotions;
  let dense = ledger_of ~gates:false Backend.Dense in
  let sparse = ledger_of ~gates:false Backend.Sparse in
  checkb "dense and sparse pipeline counters agree" true (counts dense = counts sparse);
  (* where the two representations *should* differ: allocation stats *)
  checkb "dense run records dense allocation, no sparse support" true
    (dense.Metrics.peak_dense_alloc >= 24 && dense.Metrics.peak_support = 0);
  checkb "sparse run records support, no dense allocation" true
    (sparse.Metrics.peak_support >= 24 && sparse.Metrics.peak_dense_alloc = 0)

let test_fibre_accounting () =
  setup ();
  (* dense DFT transforms every fibre; sparse only the populated ones:
     a basis state has exactly one populated fibre. *)
  let st = State.of_basis [| 8; 4 |] [| 0; 0 |] in
  ignore (State.fourier st ~wires:[ 0 ] ~inverse:false);
  let dense = Metrics.snapshot () in
  checki "dense transforms total/d fibres" 4 dense.Metrics.dft_fibres;
  Metrics.reset ();
  let st = State.of_indices ~backend:Backend.Sparse [| 8; 4 |] [| 0 |] in
  ignore (State.fourier st ~wires:[ 0 ] ~inverse:false);
  let sparse = Metrics.snapshot () in
  checki "sparse transforms populated fibres only" 1 sparse.Metrics.dft_fibres

let test_phase_timer_accumulates () =
  setup ();
  let x = Metrics.phase Classical (fun () -> 41 + 1) in
  checki "phase returns the body's value" 42 x;
  ignore (Metrics.phase Classical (fun () -> ()));
  let m = Metrics.snapshot () in
  checkb "phase seconds recorded once per name" true
    (match m.Metrics.phases with [ ("classical", s) ] -> s >= 0.0 | _ -> false);
  (* timer charges the phase even when the body raises *)
  (try Metrics.phase Classical (fun () -> failwith "boom") with Failure _ -> ());
  let m = Metrics.snapshot () in
  checkb "raising body still charged" true (List.mem_assoc "classical" m.Metrics.phases)

(* The ledger is one table indexed by the two variants: every reader
   must list each counter once, under a distinct name, in declaration
   order, every phase entered at least once, and sum concurrent
   updates exactly.  Counter k (0-based,
   declaration order) is ticked k+1 times, so a slot mix-up between the
   variant, the names, the record builder or [counters] shows as a
   wrong value at a named position. *)
let all_counters =
  Metrics.
    [ Gate_apps; Gate_fibres; Dft_apps; Dft_fibres; Basis_maps; Oracle_ops; Measurements;
      States_created; Peak_support; Pruned_amps; Peak_dense_alloc; Sampler_preps;
      Coset_visits; Classical_evals; Symbolic_rewrites; Symbolic_samples; Symbolic_solves;
      Symbolic_demotions ]

let all_phases = Metrics.[ Sample_prep; Fourier; Measure; Classical ]

let distinct names = List.length (List.sort_uniq String.compare names) = List.length names

let test_ledger_table () =
  setup ();
  List.iteri (fun k c -> Metrics.add c (k + 1)) all_counters;
  let m = Metrics.snapshot () in
  let listed = Metrics.counters m in
  checki "every counter listed once" (List.length all_counters) (List.length listed);
  checkb "counter names distinct" true (distinct (List.map fst listed));
  checkb "counters in declaration order" true
    (List.map snd listed = List.init (List.length all_counters) (fun k -> k + 1));
  checkb "record fields match their slots" true
    (List.map (fun name -> List.assoc name listed)
       [ "gate_apps"; "dft_fibres"; "states_created"; "peak_dense_alloc"; "symbolic_demotions" ]
    = [ m.Metrics.gate_apps; m.Metrics.dft_fibres; m.Metrics.states_created;
        m.Metrics.peak_dense_alloc; m.Metrics.symbolic_demotions ]);
  checkb "no phase listed before one is entered" true (m.Metrics.phases = []);
  Metrics.phase Classical (fun () -> ());
  checkb "a zero-length phase is listed" true
    (List.mem_assoc "classical" (Metrics.snapshot ()).Metrics.phases);
  List.iter (fun p -> Metrics.phase p (fun () -> ())) (List.rev all_phases);
  let names = List.map fst (Metrics.snapshot ()).Metrics.phases in
  checkb "phases in declaration order" true
    (names = [ "sample-prep"; "fourier"; "measure"; "classical" ]);
  checkb "counter and phase names distinct" true (distinct (names @ List.map fst listed));
  Metrics.raise_to Peak_support 5;
  checki "raise_to lowers nothing" 9 (Metrics.snapshot ()).Metrics.peak_support;
  Metrics.reset ();
  let m = Metrics.snapshot () in
  checkb "reset zeroes every counter" true (List.for_all (fun (_, v) -> v = 0) (Metrics.counters m));
  checkb "reset zeroes every phase" true (m.Metrics.phases = []);
  (* Four domains tick, add and time phases at once: with no lock in
     the ledger, exact sums hold only if every cell update is atomic. *)
  let n = 20_000 in
  let work () =
    for i = 1 to n do
      Metrics.tick Oracle_ops;
      Metrics.add Coset_visits 3;
      Metrics.raise_to Peak_support i;
      if i mod 100 = 0 then Metrics.phase Measure (fun () -> ())
    done
  in
  List.iter Domain.join (List.init 4 (fun _ -> Domain.spawn work));
  let m = Metrics.snapshot () in
  checki "ticks sum exactly" (4 * n) m.Metrics.oracle_ops;
  checki "adds sum exactly" (4 * 3 * n) m.Metrics.coset_visits;
  checki "high-water mark" n m.Metrics.peak_support;
  checkb "phase charged from every domain" true (List.mem_assoc "measure" m.Metrics.phases)

(* Every solver round makes three phase calls, so with no tracer
   installed the timer must not build the trace event (formatting its
   seconds field alone allocates some 70 words per call), nor a
   closure for the charge: an untraced call boxes its start time and
   nothing else, 2 words. *)
let test_phase_untraced_allocation () =
  setup ();
  Metrics.set_tracer None;
  let body () = () in
  Metrics.phase Measure body;
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    Metrics.phase Measure body
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  checkb (Printf.sprintf "untraced phase allocates %.1f <= 4 minor words" per_call) true
    (per_call <= 4.0)

let test_tracer_receives_events () =
  setup ();
  let events = ref [] in
  Metrics.set_tracer (Some (fun name fields -> events := (name, fields) :: !events));
  checkb "tracing on" true (Metrics.tracing ());
  ignore (Metrics.phase Fourier (fun () -> ()));
  Metrics.set_tracer None;
  checkb "tracing off" false (Metrics.tracing ());
  checkb "phase event emitted with name field" true
    (match !events with
    | [ ("phase", fields) ] -> List.assoc_opt "name" fields = Some "fourier"
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Sampler cost: one shared prep pass, O(|coset|) per sample          *)
(* ------------------------------------------------------------------ *)

(* The acceptance criterion for the bucketed sampler, pinned through
   the ledger: however many rounds are drawn, the O(|G|) oracle
   expansion happens exactly once (sampler_preps), and each round's
   state construction visits exactly its coset's members
   (coset_visits = rounds * |H| here, since every coset of the planted
   grid subgroup has the same size) — so per-sample cost is O(|coset|),
   not O(|G|). *)
let test_sampler_cost_ledger () =
  setup ();
  let dims = [| 64; 64 |] and moduli = [| 8; 8 |] in
  let coset_size = (dims.(0) / moduli.(0)) * (dims.(1) / moduli.(1)) in
  let f x = Backend.encode moduli (Array.map2 (fun xi m -> xi mod m) x moduli) in
  let queries = Query.create () in
  let draw = Coset_state.sampler ~dims ~f ~queries () in
  let r = rng () in
  let rounds = 5 in
  for _ = 1 to rounds do
    ignore (draw r)
  done;
  let m = Metrics.snapshot () in
  checki "one prep pass for all rounds" 1 m.Metrics.sampler_preps;
  checki "per-sample work is exactly the coset" (rounds * coset_size) m.Metrics.coset_visits;
  checkb "prep charged to sample-prep phase" true
    (List.mem_assoc "sample-prep" m.Metrics.phases);
  checki "one query per round" rounds (Query.count queries);
  (* more rounds reuse the same buckets: prep count must not move *)
  for _ = 1 to rounds do
    ignore (draw r)
  done;
  let m = Metrics.snapshot () in
  checki "still one prep pass" 1 m.Metrics.sampler_preps;
  checki "visits stay proportional" (2 * rounds * coset_size) m.Metrics.coset_visits

(* The sparse backend lifts the sampler's group-size cap from 2^22 to
   2^26: a 2^23 group is refused on the dense path but samples fine on
   the sparse one, which is also where an omitted backend sends it. *)
let test_sampler_sparse_cap_lifted () =
  setup ();
  let dims = [| 4096; 2048 |] (* 2^23: over the dense cap, under sparse *) in
  let moduli = [| 64; 64 |] in
  let f x = Backend.encode moduli (Array.map2 (fun xi m -> xi mod m) x moduli) in
  let queries = Query.create () in
  Alcotest.check_raises "dense sampler refuses 2^23"
    (Invalid_argument "Coset_state: group too large for state-vector simulation") (fun () ->
      let (_ : Random.State.t -> int array) =
        Coset_state.sampler ~backend:Backend.Dense ~dims ~f ~queries ()
      in
      ());
  checkb "omitted backend resolves 2^23 to sparse" true
    (Coset_state.prep_backend (Coset_state.prep ~dims ~f ()) = Backend.Sparse);
  let draw = Coset_state.sampler ~backend:Backend.Sparse ~dims ~f ~queries () in
  let r = rng () in
  let y = draw r in
  (* the sampled character must annihilate H = {x : x_i mod m_i = 0} *)
  checkb "character annihilates H" true
    (y.(0) * moduli.(0) mod dims.(0) = 0 && y.(1) * moduli.(1) mod dims.(1) = 0);
  let m = Metrics.snapshot () in
  checki "one prep pass" 1 m.Metrics.sampler_preps;
  checki "coset visits = |H|"
    ((dims.(0) / moduli.(0)) * (dims.(1) / moduli.(1)))
    m.Metrics.coset_visits

(* ------------------------------------------------------------------ *)
(* Query/Hiding counter semantics across Runner.run invocations       *)
(* ------------------------------------------------------------------ *)

let test_query_tick_reset () =
  let q = Query.create () in
  checki "fresh counter" 0 (Query.count q);
  Query.tick q;
  Query.tick q;
  checki "ticks accumulate" 2 (Query.count q);
  Query.reset q;
  checki "reset zeroes" 0 (Query.count q);
  Query.tick q;
  checki "usable after reset" 1 (Query.count q)

let solve_simon inst =
  Abelian_hsp.solve (rng ()) inst.Instances.group inst.Instances.hiding

let test_runner_resets_counters_between_runs () =
  setup ();
  let inst = Instances.simon ~n:3 ~mask:[| 1; 0; 1 |] in
  let r1 = Runner.run ~algorithm:"abelian" inst ~solver:solve_simon in
  let r2 = Runner.run ~algorithm:"abelian" inst ~solver:solve_simon in
  checkb "both runs ok" true (r1.Runner.ok && r2.Runner.ok);
  checkb "queries counted from zero each run (no carry-over)" true
    (r2.Runner.quantum_queries <= r1.Runner.quantum_queries * 2
    && r2.Runner.quantum_queries > 0);
  (* the second report's ledger is also a fresh one, not cumulative *)
  checkb "metrics reset between runs" true
    (r2.Runner.metrics.Metrics.measurements <= r1.Runner.metrics.Metrics.measurements * 2);
  let c, q = Hiding.total_queries inst.Instances.hiding in
  checkb "hiding counters reflect only the last run" true
    (q = r2.Runner.quantum_queries && c = r2.Runner.classical_queries)

let test_hiding_reset_zeroes () =
  let inst = Instances.simon ~n:3 ~mask:[| 1; 1; 0 |] in
  ignore (Hiding.eval inst.Instances.hiding [| 1; 0; 0 |]);
  let c, _ = Hiding.total_queries inst.Instances.hiding in
  checkb "classical query counted" true (c > 0);
  Hiding.reset inst.Instances.hiding;
  let c, q = Hiding.total_queries inst.Instances.hiding in
  checkb "reset zeroes both counters" true (c = 0 && q = 0)

let () =
  Alcotest.run "metrics"
    [
      ( "sample_discrete",
        [
          Alcotest.test_case "never returns zero-probability index" `Quick
            test_sample_never_zero_prob;
          Alcotest.test_case "degenerate distributions raise" `Quick test_sample_degenerate;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "counts identical across backends" `Quick
            test_counts_identical_across_backends;
          Alcotest.test_case "fibre accounting differs by design" `Quick
            test_fibre_accounting;
          Alcotest.test_case "one table: names, order, reset, domains" `Quick test_ledger_table;
          Alcotest.test_case "phase timer" `Quick test_phase_timer_accumulates;
          Alcotest.test_case "untraced phase allocation" `Quick test_phase_untraced_allocation;
          Alcotest.test_case "tracer events" `Quick test_tracer_receives_events;
          Alcotest.test_case "sampler prep shared, per-sample O(|coset|)" `Quick
            test_sampler_cost_ledger;
          Alcotest.test_case "sparse sampler cap lifted to 2^26" `Slow
            test_sampler_sparse_cap_lifted;
        ] );
      ( "counters",
        [
          Alcotest.test_case "query tick/reset" `Quick test_query_tick_reset;
          Alcotest.test_case "runner resets between runs" `Quick
            test_runner_resets_counters_between_runs;
          Alcotest.test_case "hiding reset zeroes" `Quick test_hiding_reset_zeroes;
        ] );
    ]
