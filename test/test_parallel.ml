(* Determinism suite for the parallel dense backend.

   The contract under test (DESIGN.md "Parallel execution"): the dense
   backend's results are bit-for-bit identical at every job count —
   same amplitudes (exact float equality, not a tolerance), same
   measurement transcripts, same cost-ledger values — because chunk
   boundaries and reduction orders are fixed by the workload geometry,
   never by the scheduler.  The sparse backend's Fourier-sampling
   kernels (DFT, norm, full-register draw) are held to the same
   contract, and cross-checked against dense at 1e-9. *)

open Quantum
open Linalg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Parallel primitive unit tests                                      *)
(* ------------------------------------------------------------------ *)

let with_jobs j f =
  let saved = Parallel.jobs () in
  Parallel.set_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs saved) f

let test_parallel_for_covers () =
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          let n = 1000 in
          let seen = Array.make n 0 in
          Parallel.parallel_for 0 n (fun lo hi ->
              for i = lo to hi - 1 do
                seen.(i) <- seen.(i) + 1
              done);
          Array.iteri (fun i c -> checki (Printf.sprintf "jobs=%d index %d" j i) 1 c) seen))
    [ 1; 2; 4 ]

let test_map_chunks_order () =
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          (* chunk c covers [bound c, bound (c+1)); returning lo shows
             the results array is in chunk order, not completion order *)
          let bounds = Parallel.map_chunks ~chunks:7 0 100 (fun lo _ -> lo) in
          let sorted = Array.copy bounds in
          Array.sort Int.compare sorted;
          checkb (Printf.sprintf "jobs=%d chunk order" j) true (bounds = sorted)))
    [ 1; 3 ]

let test_exception_propagates () =
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          Alcotest.check_raises "body exception resurfaces"
            (Invalid_argument "boom") (fun () ->
              Parallel.parallel_for 0 100 (fun lo _ ->
                  if lo >= 0 then invalid_arg "boom"))))
    [ 1; 4 ]

let test_set_jobs_validation () =
  Alcotest.check_raises "jobs 0 rejected"
    (Invalid_argument "Parallel.set_jobs: expected 1..64, got 0") (fun () ->
      Parallel.set_jobs 0);
  Alcotest.check_raises "jobs 65 rejected"
    (Invalid_argument "Parallel.set_jobs: expected 1..64, got 65") (fun () ->
      Parallel.set_jobs 65)

let with_sched s f =
  let saved = Parallel.sched () in
  Parallel.set_sched s;
  Fun.protect ~finally:(fun () -> Parallel.set_sched saved) f

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_parse_jobs_validation () =
  checki "plain" 4 (Parallel.parse_jobs "4");
  checki "trimmed" 2 (Parallel.parse_jobs " 2 ");
  checki "max accepted" Parallel.max_jobs (Parallel.parse_jobs (string_of_int Parallel.max_jobs));
  List.iter
    (fun s ->
      checkb (Printf.sprintf "rejects %S" s) true
        (raises_invalid (fun () -> Parallel.parse_jobs s)))
    [ ""; "0"; "-3"; "65"; "two"; "4.0"; "2x" ]

(* The adversarial scheduler permutes chunk execution order only:
   coverage, per-chunk slots and results must be indistinguishable from
   Fifo at every job count. *)
let test_shuffle_covers_and_orders () =
  with_sched Parallel.Shuffle (fun () ->
      List.iter
        (fun j ->
          with_jobs j (fun () ->
              let n = 1000 in
              let seen = Array.make n 0 in
              Parallel.parallel_for ~chunks:16 0 n (fun lo hi ->
                  for i = lo to hi - 1 do
                    seen.(i) <- seen.(i) + 1
                  done);
              Array.iteri
                (fun i c -> checki (Printf.sprintf "shuffle jobs=%d index %d" j i) 1 c)
                seen;
              let bounds = Parallel.map_chunks ~chunks:7 0 100 (fun lo _ -> lo) in
              let sorted = Array.copy bounds in
              Array.sort Int.compare sorted;
              checkb
                (Printf.sprintf "shuffle jobs=%d map_chunks in chunk order" j)
                true (bounds = sorted)))
        [ 1; 2; 4 ])

let test_reduction_chunks_geometry () =
  (* depends only on (slot_words, total): never on the job count *)
  let baseline = Parallel.reduction_chunks ~slot_words:1 100_000 in
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          checki
            (Printf.sprintf "jobs=%d same chunk count" j)
            baseline
            (Parallel.reduction_chunks ~slot_words:1 100_000)))
    [ 1; 2; 4 ];
  checki "tiny range" 3 (Parallel.reduction_chunks ~slot_words:1 3);
  (* memory cap: huge slots force few chunks *)
  checki "memory-capped" 1 (Parallel.reduction_chunks ~slot_words:(1 lsl 25) 1000)

(* ------------------------------------------------------------------ *)
(* Random circuit machinery (mirrors test_backends.ml)                *)
(* ------------------------------------------------------------------ *)

let random_unitary rng d =
  let pick () =
    match Random.State.int rng 3 with
    | 0 -> Cmat.dft d
    | 1 ->
        Cmat.init d d (fun i j ->
            if i = j then Complex.polar 1.0 (Random.State.float rng 6.28318) else Cx.zero)
    | _ ->
        let shift = Random.State.int rng d in
        Cmat.permutation d (fun k -> (k + shift) mod d)
  in
  let m = ref (pick ()) in
  for _ = 1 to 2 do
    m := Cmat.mul (pick ()) !m
  done;
  !m

type op =
  | Wire_unitary of int * Cmat.t
  | Dft of int * bool
  | Shift_map of int array
  | Oracle_add of int list * int

let random_op rng dims =
  let n = Array.length dims in
  match Random.State.int rng 4 with
  | 0 ->
      let w = Random.State.int rng n in
      Wire_unitary (w, random_unitary rng dims.(w))
  | 1 -> Dft (Random.State.int rng n, Random.State.bool rng)
  | 2 -> Shift_map (Array.map (fun d -> Random.State.int rng d) dims)
  | _ ->
      let out = Random.State.int rng n in
      let ins =
        List.filter (fun w -> w <> out && Random.State.bool rng) (List.init n (fun i -> i))
      in
      Oracle_add (ins, out)

let apply_op dims st = function
  | Wire_unitary (w, m) -> State.apply_wire st ~wire:w m
  | Dft (w, inv) -> State.fourier st ~wires:[ w ] ~inverse:inv
  | Shift_map c ->
      State.apply_basis_map st (fun x -> Array.mapi (fun i xi -> (xi + c.(i)) mod dims.(i)) x)
  | Oracle_add (ins, out) ->
      State.apply_oracle_add st ~in_wires:ins ~out_wire:out ~f:(fun x ->
          Array.fold_left (fun acc v -> (3 * acc) + v + 1) 0 x mod dims.(out))

let random_entries rng dims =
  let k = 1 + Random.State.int rng 6 in
  List.init k (fun _ ->
      ( Array.map (fun d -> Random.State.int rng d) dims,
        Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0) ))

(* The normalised dense superposition of the entries, duplicates
   summed in list order. *)
let of_entries dims entries =
  let v = Cvec.make (Array.fold_left ( * ) 1 dims) in
  List.iter
    (fun (x, a) ->
      let i = State.encode dims x in
      v.(i) <- Cx.add v.(i) a)
    entries;
  State.of_amplitudes dims v

(* One deterministic circuit instance derived from a seed: initial
   support plus an op list, replayable at any job count. *)
let circuit_of_seed seed =
  let rng = Random.State.make [| seed; 0x9a11e1 |] in
  let n = 1 + Random.State.int rng 3 in
  let dims = Array.init n (fun _ -> 2 + Random.State.int rng 4) in
  let entries = random_entries rng dims in
  let ops = List.init 6 (fun _ -> random_op rng dims) in
  (dims, entries, ops)

let run_dense ~jobs (dims, entries, ops) =
  with_jobs jobs (fun () ->
      let st = ref (of_entries dims entries) in
      List.iter (fun op -> st := apply_op dims !st op) ops;
      !st)

(* The pipeline the sparse backend runs, from a seed: a random index
   segment (the uniform superposition over it) and six single-wire
   DFTs, replayable on either backend at any job count.  Supports reach
   about 10^4 entries, so the DFT splits the larger segments across
   chunks (one per 2,048 entries). *)
let fourier_of_seed seed =
  let rng = Random.State.make [| seed; 0xf0e1 |] in
  let n = 1 + Random.State.int rng 3 in
  let dims = Array.init n (fun _ -> 2 + Random.State.int rng 23) in
  let total = Array.fold_left ( * ) 1 dims in
  let keep = 1 + Random.State.int rng 4 in
  let idxs = List.filter (fun _ -> Random.State.int rng 4 < keep) (List.init total Fun.id) in
  let idxs = Array.of_list (if idxs = [] then [ 0 ] else idxs) in
  let dfts = List.init 6 (fun _ -> (Random.State.int rng n, Random.State.bool rng)) in
  (dims, idxs, dfts)

let run_fourier ~backend ~jobs (dims, idxs, dfts) =
  with_jobs jobs (fun () ->
      List.fold_left
        (fun st (wire, inverse) -> State.fourier st ~wires:[ wire ] ~inverse)
        (State.of_indices ~backend dims idxs)
        dfts)

let run_sparse ?(jobs = 1) c = run_fourier ~backend:Backend.Sparse ~jobs c

(* Exact (bitwise) amplitude equality — the determinism contract is
   stronger than approx_equal. *)
let identical a b =
  let va = State.amplitudes a and vb = State.amplitudes b in
  Cvec.dim va = Cvec.dim vb
  &&
  let ok = ref true in
  for i = 0 to Cvec.dim va - 1 do
    let x = va.(i) and y = vb.(i) in
    if
      not
        (Int64.equal (Int64.bits_of_float x.Complex.re) (Int64.bits_of_float y.Complex.re)
        && Int64.equal (Int64.bits_of_float x.Complex.im) (Int64.bits_of_float y.Complex.im))
    then ok := false
  done;
  !ok

(* One run of the sparse pipeline at a job count: the state, its norm
   and eight full-register draws from one seed, all computed at that
   job count; two runs must agree bit for bit. *)
let draws st =
  let rng = Random.State.make [| 0xd4a5 |] in
  List.init 8 (fun _ -> State.measure_all rng st)

let sparse_run ~jobs c =
  with_jobs jobs (fun () ->
      let st = run_sparse ~jobs c in
      (st, State.norm st, draws st))

let sparse_identical (a, na, da) (b, nb, db) =
  identical a b && Int64.equal (Int64.bits_of_float na) (Int64.bits_of_float nb) && da = db

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~count:40 ~name:"dense jobs=2 bit-identical to jobs=1" (int_bound 100000)
      (fun seed ->
        let c = circuit_of_seed seed in
        identical (run_dense ~jobs:1 c) (run_dense ~jobs:2 c));
    Test.make ~count:40 ~name:"dense jobs=4 bit-identical to jobs=1" (int_bound 100000)
      (fun seed ->
        let c = circuit_of_seed seed in
        identical (run_dense ~jobs:1 c) (run_dense ~jobs:4 c));
    Test.make ~count:40 ~name:"sparse jobs=2 bit-identical to jobs=1" (int_bound 100000)
      (fun seed ->
        let c = fourier_of_seed seed in
        sparse_identical (sparse_run ~jobs:1 c) (sparse_run ~jobs:2 c));
    Test.make ~count:40 ~name:"sparse jobs=4 bit-identical to jobs=1" (int_bound 100000)
      (fun seed ->
        let c = fourier_of_seed seed in
        sparse_identical (sparse_run ~jobs:1 c) (sparse_run ~jobs:4 c));
    Test.make ~count:40 ~name:"parallel dense agrees with sparse" (int_bound 100000)
      (fun seed ->
        let c = fourier_of_seed seed in
        State.approx_equal ~eps:1e-9
          (run_fourier ~backend:Backend.Dense ~jobs:4 c)
          (run_sparse ~jobs:4 c));
    Test.make ~count:40 ~name:"dense shuffle jobs=4 bit-identical to fifo jobs=1"
      (int_bound 100000) (fun seed ->
        let c = circuit_of_seed seed in
        let base = run_dense ~jobs:1 c in
        with_sched Parallel.Shuffle (fun () -> identical base (run_dense ~jobs:4 c)));
    Test.make ~count:40 ~name:"sparse shuffle jobs=4 bit-identical to fifo jobs=1"
      (int_bound 100000) (fun seed ->
        let c = fourier_of_seed seed in
        let base = sparse_run ~jobs:1 c in
        with_sched Parallel.Shuffle (fun () -> sparse_identical base (sparse_run ~jobs:4 c)));
  ]

(* ------------------------------------------------------------------ *)
(* Ledger and transcript determinism                                  *)
(* ------------------------------------------------------------------ *)

(* The int counters of a snapshot (everything except phase timings,
   which are wall-clock and legitimately vary). *)
let counters (s : Metrics.snapshot) =
  [
    s.gate_apps; s.gate_fibres; s.dft_apps; s.dft_fibres; s.basis_maps; s.oracle_ops;
    s.measurements; s.states_created; s.peak_support; s.pruned_amps; s.peak_dense_alloc;
    s.sampler_preps; s.coset_visits;
  ]

let test_ledger_equal_across_jobs () =
  let c = circuit_of_seed 0xced9e5 and f = fourier_of_seed 0xced9e5 in
  let ledger run jobs =
    Metrics.reset ();
    run jobs;
    counters (Metrics.snapshot ())
  in
  List.iter
    (fun (name, run) ->
      let base = ledger run 1 in
      List.iter
        (fun j ->
          checkb (Printf.sprintf "%s ledger at jobs=%d matches jobs=1" name j) true
            (List.for_all2 Int.equal base (ledger run j)))
        [ 2; 4 ])
    [
      ("dense", fun jobs -> ignore (run_dense ~jobs c));
      ("sparse", fun jobs -> ignore (sparse_run ~jobs f));
    ]

(* Same seed + same job count => same measurement transcript; and the
   transcript is also independent of the job count, because the
   probability vectors fed to the sampler are bit-identical.  Dense
   measures single wires of the random circuit, collapsing as it goes;
   sparse draws the whole register of the Fourier pipeline. *)
let transcript ~backend ~jobs seed =
  with_jobs jobs (fun () ->
      let rng = Random.State.make [| seed; 0x7ea5 |] in
      match backend with
      | Backend.Sparse ->
          let st = run_sparse ~jobs (fourier_of_seed seed) in
          List.init 4 (fun _ -> Backend.encode (State.dims st) (State.measure_all rng st))
      | _ ->
          let dims, entries, ops = circuit_of_seed seed in
          let st = ref (of_entries dims entries) in
          List.iter (fun op -> st := apply_op dims !st op) ops;
          List.init 4 (fun _ ->
              let wire = Random.State.int rng (Array.length dims) in
              let outcome, post = State.measure rng !st ~wires:[ wire ] in
              st := post;
              outcome.(0)))

let test_measurement_transcript_determinism () =
  List.iter
    (fun (name, backend) ->
      List.iter
        (fun seed ->
          let base = transcript ~backend ~jobs:1 seed in
          checkb "same seed+jobs reproduces" true
            (List.for_all2 Int.equal base (transcript ~backend ~jobs:1 seed));
          List.iter
            (fun j ->
              checkb
                (Printf.sprintf "%s transcript at jobs=%d matches jobs=1" name j)
                true
                (List.for_all2 Int.equal base (transcript ~backend ~jobs:j seed)))
            [ 2; 4 ])
        [ 1; 42; 0xbeef ])
    [ ("dense", Backend.Dense); ("sparse", Backend.Sparse) ]

let test_probabilities_bit_identical () =
  let dims = [| 6; 5; 4 |] in
  let entries =
    let rng = Random.State.make [| 0x9e0 |] in
    random_entries rng dims
  in
  let st = of_entries dims entries in
  let st = State.fourier st ~wires:[ 0 ] ~inverse:false in
  let probs jobs = with_jobs jobs (fun () -> State.probabilities st ~wires:[ 0; 2 ]) in
  let base = probs 1 in
  List.iter
    (fun j ->
      let p = probs j in
      checkb
        (Printf.sprintf "probabilities at jobs=%d bit-identical" j)
        true
        (Array.for_all2
           (fun (a : float) b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           base p))
    [ 2; 3; 4 ]

(* The dense DFT splits each wire into (block, lane range) calls and
   hands them to the pool.  On shapes whose wires split into several
   lane ranges, a short last range, few or many blocks, and every kernel
   family (straight-line, radix-2, root-table sum, Bluestein), the
   result at jobs 2 and 4 under Shuffle is the serial FIFO run's, bit
   for bit; and so is a whole Qft sweep against the per-wire fold. *)
let test_dense_dft_bit_identical () =
  List.iter
    (fun dims ->
      let rng = Random.State.make [| Array.length dims; 0xd7f |] in
      let total = Array.fold_left ( * ) 1 dims in
      let v =
        Array.init total (fun _ ->
            Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))
      in
      let st = State.of_amplitudes dims v in
      Array.iteri
        (fun wire _ ->
          List.iter
            (fun inverse ->
              let run () = State.fourier st ~wires:[ wire ] ~inverse in
              let base = with_jobs 1 run in
              List.iter
                (fun j ->
                  checkb
                    (Printf.sprintf "dims %d wire %d inverse %b: jobs=%d shuffled matches jobs=1"
                       (Array.length dims) wire inverse j)
                    true
                    (identical base (with_sched Parallel.Shuffle (fun () -> with_jobs j run))))
                [ 2; 4 ])
            [ false; true ])
        dims;
      (* The whole sweep runs every wire on one copy of the planes; it
         must be the per-wire fold's state bit for bit, in the caller's
         wire order, at every job count under Shuffle. *)
      let wires = List.rev (List.init (Array.length dims) Fun.id) in
      List.iter
        (fun inverse ->
          let fold =
            with_jobs 1 (fun () ->
                List.fold_left (fun st wire -> State.fourier st ~wires:[ wire ] ~inverse) st wires)
          in
          let sweep () =
            if inverse then Qft.backward st ~wires else Qft.forward st ~wires
          in
          List.iter
            (fun j ->
              checkb
                (Printf.sprintf "dims %d whole sweep inverse %b: jobs=%d shuffled matches fold"
                   (Array.length dims) inverse j)
                true
                (identical fold (with_sched Parallel.Shuffle (fun () -> with_jobs j sweep))))
            [ 1; 2; 4 ])
        [ false; true ])
    [ [| 3; 64; 512 |]; [| 36; 6; 300 |]; [| 3; 3; 3; 3; 4; 4; 4 |] ]

let () =
  Alcotest.run "parallel"
    [
      ( "primitives",
        [
          Alcotest.test_case "parallel_for covers range once" `Quick test_parallel_for_covers;
          Alcotest.test_case "map_chunks in chunk order" `Quick test_map_chunks_order;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "set_jobs validation" `Quick test_set_jobs_validation;
          Alcotest.test_case "parse_jobs validation" `Quick test_parse_jobs_validation;
          Alcotest.test_case "shuffle covers and orders" `Quick test_shuffle_covers_and_orders;
          Alcotest.test_case "reduction chunk geometry" `Quick test_reduction_chunks_geometry;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
      ( "determinism",
        [
          Alcotest.test_case "ledger equal across jobs" `Quick test_ledger_equal_across_jobs;
          Alcotest.test_case "measurement transcripts" `Quick
            test_measurement_transcript_determinism;
          Alcotest.test_case "probabilities bit-identical" `Quick
            test_probabilities_bit_identical;
          Alcotest.test_case "dense dft bit-identical" `Quick test_dense_dft_bit_identical;
        ] );
    ]
