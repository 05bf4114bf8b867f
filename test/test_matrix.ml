(* The configuration matrix, in one process.

   The paper's theorems are claims about the algorithm, not the
   simulator: the hidden subgroup a solver returns, and what it costs,
   must not depend on the amplitude backend, the job count or the order
   the pool runs chunks in.  Each of the nine cells below sets the
   session defaults through the runtime setters — Backend.set_default
   over {none ("auto"), Sparse, Symbolic} x (Parallel.set_jobs,
   Parallel.set_sched) over {(1, Fifo), (2, Fifo), (4, Shuffle)} — and
   runs the same workloads from the same seeds:

   - the one-instance-per-theorem set the bench smoke gate runs
     (Runner.theorem_runs);
   - the Z_4 x Z_6 coset-draw exact law through the default-backend
     Coset_state.sampler (Coset_law, 30,000 draws);
   - the Lemma 9 state-valued sampler;
   - one sample and one solve through Service, backend omitted;
   - the textbook 8-qubit QFT circuit against Qft.forward on Z_256.

   Every workload here samples on the oracle route, where a Symbolic
   choice means sparse: an oracle's coset buckets carry no subgroup
   structure (Coset_state.oracle_backend).  Only the two route rules
   (Coset_state.oracle_backend, Coset_state.planted_backend) read the
   session default, so the Symbolic row must be the Sparse row bit for
   bit; it is compared against the Sparse (1, Fifo) cell, and a state
   constructor or solver that read the default on its own would show
   as a diff there.

   Every other cell must reproduce its own backend's (1, Fifo) cell bit
   for bit: answers, query counts, a digest of the outcome transcript
   (every sampled outcome plus the final RNG state, and for the circuit
   the IEEE bits of its amplitudes and reductions)
   and the Metrics counters.  In every cell, answers must be correct,
   the Analysis.Cost_check claims must hold and the law test must pass. *)

open Quantum
open Hsp
open Hsp_service

let backends = [ None; Some Backend.Sparse; Some Backend.Symbolic ]
let pools = [ (1, Parallel.Fifo); (2, Parallel.Fifo); (4, Parallel.Shuffle) ]

(* The row whose (1, Fifo) cell a row is compared against. *)
let base_row = function Some Backend.Symbolic -> Some Backend.Sparse | b -> b

let cell_name backend (jobs, sched) =
  Printf.sprintf "%s/jobs=%d/%s"
    (match backend with None -> "auto" | Some b -> Backend.choice_to_string b)
    jobs
    (match sched with Parallel.Fifo -> "fifo" | Parallel.Shuffle -> "shuffle")

(* One workload's result in one cell: [exact] fields must equal the
   base cell's; [problems] must be empty in every cell. *)
type obs = { workload : string; exact : (string * string) list; problems : string list }

(* The outcome transcript of one workload: the outcomes it draws and
   the final state of its RNG.  Workloads whose rounds run inside a
   solver or the service record them through the tracer ({!traced}:
   every "coset-round" event); the others add their outcomes directly,
   since a tracer also formats a timing event per phase.  Service
   rounds run on the executor thread, hence the lock. *)
let transcript = Buffer.create 4096
let transcript_lock = Mutex.create ()

let add_transcript s =
  Mutex.protect transcript_lock (fun () ->
      Buffer.add_string transcript s;
      Buffer.add_char transcript '\n')

let add_outcome y = add_transcript (String.concat "," (List.map string_of_int (Array.to_list y)))

let traced f =
  Metrics.set_tracer
    (Some
       (fun event fields ->
         if String.equal event "coset-round" then
           add_transcript (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) fields))));
  Fun.protect ~finally:(fun () -> Metrics.set_tracer None) f

let digest_transcript rng =
  Mutex.protect transcript_lock (fun () ->
      Buffer.add_string transcript (string_of_int (Random.State.bits rng));
      let d = Digest.to_hex (Digest.string (Buffer.contents transcript)) in
      Buffer.clear transcript;
      d)

let counters (m : Metrics.snapshot) =
  List.map (fun (k, v) -> ("metrics." ^ k, string_of_int v)) (Metrics.counters m)

let float_bits buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

let theorems rng =
  let runs = traced (fun () -> Runner.theorem_runs rng) in
  let transcript = digest_transcript rng in
  let per_theorem =
    List.map
      (fun (t : Runner.theorem_run) ->
        let r = t.Runner.report in
        let queries = r.Runner.classical_queries + r.Runner.quantum_queries in
        let claim = Option.get (Analysis.Cost_check.find t.Runner.thm) in
        let params =
          Analysis.Cost_check.params ~group_order:t.Runner.order
            ~quotient_order:t.Runner.quotient ~commutator_order:t.Runner.commutator
            ~nu:t.Runner.nu ()
        in
        let v = Analysis.Cost_check.check_snapshot claim params ~queries r.Runner.metrics in
        {
          workload = "theorem " ^ t.Runner.thm;
          exact =
            ("answer", t.Runner.answer) :: ("queries", string_of_int queries)
            :: counters r.Runner.metrics;
          problems =
            (if r.Runner.ok then [] else [ "wrong answer " ^ t.Runner.answer ])
            @ (if v.Analysis.Cost_check.ok then []
               else [ Format.asprintf "%a" Analysis.Cost_check.pp v ]);
        })
      runs
  in
  { workload = "theorem transcript"; exact = [ ("transcript", transcript) ]; problems = [] }
  :: per_theorem

(* A single-observation workload: [f] returns its exact fields and
   problems; the transcript and the ledger counters are added here. *)
let with_ledger workload rng f =
  Metrics.reset ();
  let exact, problems = f () in
  let transcript = digest_transcript rng in
  [
    {
      workload;
      exact = (("transcript", transcript) :: exact) @ counters (Metrics.snapshot ());
      problems;
    };
  ]

let law rng =
  with_ledger "coset draw law" rng @@ fun () ->
  let queries = Query.create () in
  let draw = Coset_state.sampler ~dims:Coset_law.dims ~f:Coset_law.f ~queries () in
  let draw rng =
    let y = draw rng in
    add_outcome y;
    y
  in
  match Coset_law.check ~draws:30_000 draw with
  | Ok counts ->
      let buf = Buffer.create 256 in
      Array.iter (fun c -> Buffer.add_string buf (string_of_int c ^ ",")) counts;
      ( [ ("counts", Digest.to_hex (Digest.string (Buffer.contents buf)));
          ("queries", string_of_int (Query.count queries)) ],
        [] )
  | Error msg -> ([], [ msg ])

(* Lemma 9: the oracle returns one unit vector per coset of
   H = <(2, 3)> in Z_4 x Z_6 instead of a tag; the samples must
   annihilate H and recover it. *)
let state_valued rng =
  with_ledger "lemma 9 state-valued" rng @@ fun () ->
  let dims = [| 4; 6 |] and gen = [| 2; 3 |] in
  let f x =
    let x0, x1 = if x.(0) >= 2 then (x.(0) - 2, (x.(1) + 3) mod 6) else (x.(0), x.(1)) in
    Linalg.Cvec.basis 12 ((x0 * 6) + x1)
  in
  let queries = Query.create () in
  let draw = Coset_state.sampler_state_valued ~dims ~f ~queries () in
  let samples = List.init 40 (fun _ -> draw rng) in
  List.iter add_outcome samples;
  let recovered = Coset_state.annihilator_subgroup ~dims samples in
  let group = Groups.Cyclic.product dims in
  ( [ ("answer", String.concat ";" (List.map group.Groups.Group.repr recovered));
      ("queries", string_of_int (Query.count queries)) ],
    List.filter_map
      (fun y ->
        if Qft.character_is_trivial_on ~dims y gen then None
        else Some "outcome outside the annihilator")
      samples
    @
    if Groups.Group.subgroup_equal group recovered [ gen ] then []
    else [ "state-valued samples do not recover H" ] )

(* One sample and one solve with the backend omitted: the service
   routes by the session default.  H = <(4, 0), (0, 2)> in Z_8 x Z_8. *)
let service rng =
  with_ledger "service" rng @@ fun () ->
  let inst = { Protocol.dims = [| 8; 8 |]; moduli = [| 4; 2 |]; backend = None } in
  let sample, solve =
    traced @@ fun () ->
    let t = Service.create ~seed:7 () in
    Service.start t;
    let submit req = Service.submit t { Protocol.id = Jsonv.Null; req } in
    let sample = submit (Protocol.Sample { inst; count = 16; seed = Some 3 }) in
    let solve = submit (Protocol.Solve { inst; seed = Some 5 }) in
    Service.stop t;
    (sample, solve)
  in
  let field k reply =
    match Jsonv.member k reply with Some v -> Jsonv.to_string v | None -> "-"
  in
  let outcomes =
    match Jsonv.member "outcomes" sample with
    | Some (Jsonv.List l) ->
        List.map
          (function Jsonv.List y -> List.filter_map Jsonv.to_int_opt y | _ -> [])
          l
    | _ -> []
  in
  let annihilates = function
    | [ y0; y1 ] -> Int.equal (y0 * 4 mod 8) 0 && Int.equal (y1 * 2 mod 8) 0
    | _ -> false
  in
  ( [ ("sample.outcomes", field "outcomes" sample);
      ("sample.queries", field "quantum_queries" sample);
      ("solve.generators", field "generators" solve);
      ("solve.rounds", field "rounds" solve);
      ("solve.queries", field "quantum_queries" solve) ],
    (if field "ok" sample = "true" && List.length outcomes = 16 then []
     else [ "sample failed: " ^ Jsonv.to_string sample ])
    @ (if List.for_all annihilates outcomes then [] else [ "sample outside the annihilator" ])
    @
    if field "verified" solve = "true" then []
    else [ "solve failed: " ^ Jsonv.to_string solve ] )

(* The textbook 8-qubit QFT circuit on a seeded random state, checked
   against Qft.forward on the one-wire Z_256 register holding the same
   amplitudes (big-endian, so the flat indices coincide), then sixteen
   one- and two-wire measurements of the circuit's output.  The digest
   covers the IEEE bits of the output amplitudes, of every marginal and
   of every renormalised post-measurement state: a reduction whose
   summation order moves shows here even where no sampled outcome
   would, and one reordered sum changes the last bit only now and then,
   hence sixteen. *)
let circuit rng =
  with_ledger "circuit qft-8" rng @@ fun () ->
  let n = 8 in
  let c = Circuit.qft n in
  let amps =
    Array.init (1 lsl n) (fun _ ->
        Linalg.Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))
  in
  let st = Circuit.run c (State.of_amplitudes (Array.make n 2) amps) in
  let reference =
    State.amplitudes (Qft.forward (State.of_amplitudes [| 1 lsl n |] amps) ~wires:[ 0 ])
  in
  let buf = Buffer.create (16 lsl n) in
  let state_bits st =
    Array.iter
      (fun (z : Linalg.Cx.t) ->
        float_bits buf z.Complex.re;
        float_bits buf z.Complex.im)
      (State.amplitudes st)
  in
  state_bits st;
  List.iter
    (fun wires ->
      Array.iter (float_bits buf) (State.probabilities st ~wires);
      let outcome, post = State.measure rng st ~wires in
      add_outcome outcome;
      state_bits post)
    (List.init n (fun w -> [ w ]) @ List.init n (fun w -> [ w; (w + 3) mod n ]));
  ( [ ("bits", Digest.to_hex (Digest.string (Buffer.contents buf))) ],
    if Array.for_all2 (Linalg.Cx.approx_equal ~eps:1e-9) reference (State.amplitudes st) then []
    else [ "Circuit.qft drifts from Qft.forward on Z_256" ] )

let workloads = [ theorems; law; state_valued; service; circuit ]

(* ------------------------------------------------------------------ *)
(* The matrix                                                         *)
(* ------------------------------------------------------------------ *)

(* Run every workload under one cell's settings, each from its own
   fresh seeded RNG, restoring the caller's settings afterwards. *)
let run_cell backend (jobs, sched) =
  let saved = (Backend.default (), Parallel.jobs (), Parallel.sched ()) in
  Fun.protect
    ~finally:(fun () ->
      let b, j, s = saved in
      Backend.set_default b;
      Parallel.set_jobs j;
      Parallel.set_sched s;
      Metrics.reset ())
    (fun () ->
      Backend.set_default backend;
      Parallel.set_jobs jobs;
      Parallel.set_sched sched;
      (* a workload that raised in an earlier cell left its rounds here *)
      Mutex.protect transcript_lock (fun () -> Buffer.clear transcript);
      List.concat
        (List.mapi (fun k w -> w (Random.State.make [| 0x3a7; k |])) workloads))

(* The (1, Fifo) cell of each backend, once it has run. *)
let base_pool = List.hd pools
let bases : (Backend.choice option * obs list) list ref = ref []

(* Cells run pool-major — every backend at (1, Fifo) first, the
   4-domain shuffled pool last — so no cell pays for idle worker
   domains a larger pool left behind. *)
let test_cell backend pool () =
  let obs = run_cell backend pool in
  if pool == base_pool then bases := (backend, obs) :: !bases;
  let base =
    match List.assoc_opt (base_row backend) !bases with
    | Some b -> b
    | None -> Alcotest.fail "the (1, Fifo) cell of the base row did not complete"
  in
  let base_name = cell_name (base_row backend) base_pool in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun o ->
      List.iter (fun p -> fail "%s: %s" o.workload p) o.problems;
      let b = List.find (fun b -> String.equal b.workload o.workload) base in
      List.iter
        (fun (k, v) ->
          match List.assoc_opt k b.exact with
          | Some bv when String.equal bv v -> ()
          | Some bv -> fail "%s: %s is %s, %s has %s" o.workload k v base_name bv
          | None -> fail "%s: %s missing in %s" o.workload k base_name)
        o.exact)
    obs;
  match List.rev !failures with
  | [] -> ()
  | fs -> Alcotest.fail (String.concat "\n" fs)

let () =
  Alcotest.run "matrix"
    [
      ( "cells",
        List.concat_map
          (fun pool ->
            List.map
              (fun b -> Alcotest.test_case (cell_name b pool) `Quick (test_cell b pool))
              backends)
          pools );
    ]
