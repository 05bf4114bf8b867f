(* Benchmark harness: regenerates every experiment in EXPERIMENTS.md.

   The paper (Ivanyos–Magniez–Santha, SPAA 2001) is a theory paper
   with no tables or figures; its evaluation is a set of complexity
   claims.  Each experiment E1–E14 below measures one claim's *shape*:
   oracle-query scaling of the quantum algorithm against the classical
   baseline, on the group families the paper names.

     dune exec bench/main.exe              -- e1..e14
     dune exec bench/main.exe -- e3 e5     -- selected experiments
     dune exec bench/main.exe -- smoke     -- one instance per theorem

   Every cell is exact: queries, rounds, orders, ledger counts, digests
   and verdicts, never a wall-clock time.  Each experiment draws from
   its own stream, seeded from the run seed and its name, so a block
   prints the same alone as within any selection, at any HSP_JOBS.  The
   output of smoke, e1..e10 and e13 is committed as claims.expected and
   diffed by `dune runtest`; an intended change goes through
   `dune promote`.

   smoke and E1–E9 solve through Runner, as the CLI does: a row's |G|,
   query and ok cells come from the report Runner.run (or
   Runner.closed_form) returns, so every solve is checked in one place.
   E1c's ablation, E2b/E2c and E10–E14 keep their own checks.

   The harness is its own gate: it exits 1 if any row's ok cell reads
   false (or fail) or its claim cell reads OVER, or if a check with no
   cell of its own fails, and 2 on an unknown experiment name, before
   running anything.

   Absolute numbers are simulator-dependent; the claims under test are
   the growth shapes (poly(log |G|) or poly(small parameter) for the
   quantum algorithms vs Theta(|G|) classically).  Per-layer timing of
   the solver and daemon paths, gated against a committed baseline, is
   bench/perf's job (hsp_bench), not this harness's. *)

open Groups
open Hsp

let run_seed = 20260705

(* Failed gates: rows whose ok or claim cell says so, plus the checks
   that have no cell and count themselves.  Any makes the run exit 1. *)
let failures = ref 0

(* The current table's title and trimmed column names, which [row]
   reads to find its ok and claim cells. *)
let table = ref ("", [])

let header title columns =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%s\n" (String.concat " | " columns);
  Printf.printf "%s\n" (String.make (String.length (String.concat " | " columns)) '-');
  table := (title, List.map String.trim columns)

(* A row fails when its ok cell reads false (E7 prints fail for no
   answer) or its claim cell starts with OVER (Analysis.Cost_check). *)
let rec failed columns cells =
  match (columns, cells) with
  | "ok" :: _, ("false" | "fail") :: _ -> true
  | "claim" :: _, c :: _ when String.starts_with ~prefix:"OVER" c -> true
  | _ :: columns, _ :: cells -> failed columns cells
  | _ -> false

let row cells =
  Printf.printf "%s\n%!" (String.concat " | " cells);
  let title, columns = !table in
  if failed columns (List.map String.trim cells) then begin
    incr failures;
    Printf.printf "gate failure: %s\n" title
  end

let fmt_i = Printf.sprintf "%8d"
let fmt_s = Printf.sprintf "%8s"
let fmt_f = Printf.sprintf "%8.3f"
let show dims = String.concat "x" (List.map string_of_int (Array.to_list dims))
let total dims = Array.fold_left ( * ) 1 dims

(* A digest over sampled outcomes, in order: each value then a comma. *)
let outcome_digest outcomes =
  Digest.string
    (String.concat ""
       (List.concat_map (fun o -> List.map (fun v -> string_of_int v ^ ",") (Array.to_list o))
          outcomes))

(* Cost-claim cell (Analysis.Cost_check): every smoke and E10 row is
   checked against its theorem's query/gate budget; an OVER cell fails
   the run, so cost regressions gate the same way wrong answers do. *)
let claim_cell label ~params ~queries metrics =
  match Analysis.Cost_check.find label with
  | None -> "-"
  | Some claim ->
      let v = Analysis.Cost_check.check_snapshot claim params ~queries metrics in
      if not v.Analysis.Cost_check.ok then
        Printf.printf "claim violation: %s\n" (Format.asprintf "%a" Analysis.Cost_check.pp v);
      Analysis.Cost_check.cell v

(* The determinism gate E11 and E12 share: run [f] once per job count
   (1, 2, 4), each from a fresh RNG seeded [seed] and a reset ledger.  A
   run is ok when its digest and every ledger counter equal the jobs=1
   run's; otherwise [diverged jobs] explains it and the caller's ok cell
   fails.  Returns (jobs, digest, ok, result) per job count, and leaves
   the pool at one job. *)
let across ~seed ~diverged f =
  let runs =
    List.map
      (fun jobs ->
        Quantum.Parallel.set_jobs jobs;
        Quantum.Metrics.reset ();
        let digest, result = f (Random.State.make [| seed |]) in
        (jobs, digest, Quantum.Metrics.counters (Quantum.Metrics.snapshot ()), result))
      [ 1; 2; 4 ]
  in
  Quantum.Parallel.set_jobs 1;
  match runs with
  | [] -> []
  | (_, base_digest, base_counters, _) :: _ ->
      List.map
        (fun (jobs, digest, cs, result) ->
          let ok = String.equal digest base_digest && cs = base_counters in
          if not ok then Printf.printf "claim violation: %s\n" (diverged jobs);
          (jobs, digest, ok, result))
        runs

(* Cells from a Runner report; ok means the answer generates exactly H. *)
let order_cell r = fmt_i r.Runner.group_order
let quantum_cell r = fmt_i r.Runner.quantum_queries
let classical_cell r = fmt_i r.Runner.classical_queries

(* ok when every report behind the row is: a solve, and its baseline *)
let ok_cell reports = fmt_s (string_of_bool (List.for_all (fun r -> r.Runner.ok) reports))

(* The report of [solve] on [inst] and the solver's own result, whose
   fields fill a row's extra columns; [gens] reads the answer from it. *)
let keep ~algorithm inst solve gens =
  let kept = ref None in
  let report =
    Runner.run ~algorithm inst ~solver:(fun i ->
        let res = solve i in
        kept := Some res;
        gens res)
  in
  (report, Option.get !kept)

(* The classical baseline: scan the whole group, |G| + 1 queries. *)
let brute_force i = Classical.brute_force i.Instances.group i.Instances.hiding
let baseline inst = Runner.run ~algorithm:"classical" inst ~solver:brute_force

(* ------------------------------------------------------------------ *)
(* E1: Abelian HSP (Theorem 3 / Lemma 9) — Simon instances            *)
(* ------------------------------------------------------------------ *)

let e1 rng =
  let abelian i = Abelian_hsp.solve rng i.Instances.group i.Instances.hiding in
  header "E1: Abelian HSP on Z_2^n (Simon) — quantum O(n) queries vs classical Theta(2^n)"
    [ fmt_s "n"; fmt_s "|G|"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "classical"; fmt_s "ok" ];
  List.iter
    (fun n ->
      let inst = Instances.simon ~n ~mask:(Array.init n (fun i -> if i mod 3 = 0 then 1 else 0)) in
      let r = Runner.run ~algorithm:"abelian" inst ~solver:abelian in
      let c = baseline inst in
      row
        [ fmt_i n; order_cell r; quantum_cell r; classical_cell r; classical_cell c;
          ok_cell [ r; c ] ])
    [ 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
  header "E1b: Abelian HSP on mixed cyclic products"
    [ fmt_s "group"; fmt_s "|G|"; fmt_s "q-quant"; fmt_s "ok" ];
  List.iter
    (fun dims ->
      let inst = Instances.abelian_random rng ~dims in
      let r = Runner.run ~algorithm:"abelian" inst ~solver:abelian in
      row [ fmt_s (show dims); order_cell r; quantum_cell r; ok_cell [ r ] ])
    [ [| 16 |]; [| 4; 6 |]; [| 9; 8 |]; [| 5; 5; 4 |]; [| 2; 3; 4; 5 |] ];
  (* ablation: how many Fourier-sampling rounds does exact recovery
     need?  (The Las Vegas solver verifies and resamples; this shows
     why its first batch of ~log|G| rounds almost always suffices.)
     Not a solve, so it checks its own recoveries. *)
  header "E1c: ablation — recovery rate vs number of sampling rounds (Simon n=6, 50 trials)"
    [ fmt_s "rounds"; fmt_s "recovered"; fmt_s "rate" ];
  let n = 6 in
  let mask = [| 1; 0; 1; 1; 0; 1 |] in
  let inst = Instances.simon ~n ~mask in
  let dims = Array.make n 2 in
  let f tuple = inst.Instances.hiding.Hiding.raw tuple in
  let draw = Quantum.Coset_state.sampler ~dims ~f ~queries:inst.Instances.hiding.Hiding.quantum () in
  List.iter
    (fun rounds ->
      let hits = ref 0 in
      for _ = 1 to 50 do
        let samples = List.init rounds (fun _ -> draw rng) in
        let gens = Quantum.Coset_state.annihilator_subgroup ~dims samples in
        if Group.subgroup_equal inst.Instances.group gens inst.Instances.hidden_gens then
          incr hits
      done;
      row [ fmt_i rounds; fmt_i !hits; fmt_f (float_of_int !hits /. 50.0) ])
    [ 1; 2; 3; 4; 5; 6; 8; 10; 14 ]

(* ------------------------------------------------------------------ *)
(* E2: Shor oracles (Theorem 4 hypotheses)                            *)
(* ------------------------------------------------------------------ *)

(* The multiplicative order of [a] mod [n] by walking its powers; 0
   when no power below [n] is 1 ([a] is not a unit). *)
let brute_order a n =
  let rec go k x = if x = 1 then k else if k >= n then 0 else go (k + 1) (x * a mod n) in
  go 1 (a mod n)

let e2 rng =
  header "E2a: quantum order finding in Z_N^* — queries stay flat as N grows"
    [ fmt_s "N"; fmt_s "elt"; fmt_s "order"; fmt_s "queries"; fmt_s "ok" ];
  List.iter
    (fun (n, a) ->
      let r, o =
        Runner.closed_form ~instance:(Printf.sprintf "ord(%d mod %d)" a n) ~algorithm:"shor"
          (fun queries ->
            let pow k = Numtheory.Arith.powmod a k n in
            let o = Quantum.Shor.find_order rng ~pow ~order_bound:n ~queries in
            (* the least k > 0 with a^k = 1 (mod N) *)
            (o = Some (brute_order a n), o))
      in
      row
        [ fmt_i n; fmt_i a; fmt_s (Option.fold ~none:"fail" ~some:string_of_int o);
          quantum_cell r; ok_cell [ r ] ])
    [ (15, 2); (25, 2); (77, 3); (123, 2); (255, 2); (501, 5) ];
  (* E2b and E2c count no queries: their checks stay in the rows *)
  header "E2b: factoring via order finding" [ fmt_s "N"; fmt_s "factors"; fmt_s "ok" ];
  List.iter
    (fun n ->
      let r = Quantum.Shor.factor rng n in
      let ok = match r with Some (a, b) -> a > 1 && b > 1 && a * b = n | None -> false in
      row
        [ fmt_i n;
          fmt_s (match r with Some (a, b) -> Printf.sprintf "%d*%d" a b | None -> "fail");
          fmt_s (string_of_bool ok) ])
    [ 15; 21; 35; 91; 143; 221 ];
  header "E2c: discrete log in Z_p^* (Abelian HSP form)"
    [ fmt_s "p"; fmt_s "base"; fmt_s "planted"; fmt_s "found"; fmt_s "ok" ];
  List.iter
    (fun (p, g, l) ->
      let h = Numtheory.Arith.powmod g l p in
      let found = Dlog.discrete_log rng ~p ~g ~h in
      let ok = match found with Some x -> Numtheory.Arith.powmod g x p = h | None -> false in
      row
        [ fmt_i p; fmt_i g; fmt_i l;
          fmt_s (match found with Some x -> string_of_int x | None -> "fail");
          fmt_s (string_of_bool ok) ])
    [ (23, 5, 9); (101, 2, 37); (211, 3, 113); (401, 3, 251) ]

(* ------------------------------------------------------------------ *)
(* E3: hidden normal subgroups (Theorem 8)                            *)
(* ------------------------------------------------------------------ *)

let e3 rng =
  header
    "E3: hidden normal subgroup (Thm 8) — f-queries scale with |G/N|, classical with |G|"
    [ fmt_s "group"; fmt_s "|G|"; fmt_s "|G/N|"; fmt_s "q-class"; fmt_s "classical"; fmt_s "ok" ];
  (* one row: the solve's f-queries against the classical baseline's *)
  let solve_row name inst =
    let r, res =
      keep ~algorithm:"normal" inst
        (fun i -> Normal_hsp.solve rng i.Instances.group i.Instances.hiding)
        (fun res -> res.Normal_hsp.generators)
    in
    let c = baseline inst in
    row
      [ fmt_s name; order_cell r; fmt_i res.Normal_hsp.quotient_order; classical_cell r;
        classical_cell c; ok_cell [ r; c ] ]
  in
  let run_dihedral n d =
    solve_row (Printf.sprintf "D_%d/s^%d" n d) (Instances.dihedral_rotation ~n ~d)
  in
  (* growing group, fixed quotient: queries should stay flat *)
  List.iter (fun n -> run_dihedral n 2) [ 12; 24; 48; 96; 192 ];
  (* fixed group, growing quotient: queries should grow with |G/N| *)
  List.iter (fun d -> run_dihedral 96 d) [ 2; 4; 8; 16 ];
  (* permutation groups *)
  solve_row "S4/V4" (Instances.perm_normal_klein ());
  let s4 = Perm.symmetric 4 in
  solve_row "S4/A4" (Instances.make ~name:"A4" s4 (Group.elements (Perm.alternating 4)));
  (* solvable metacyclic groups: Frobenius and affine translations *)
  solve_row "F21/Z7" (Instances.frobenius_translations ~p:7 ~q:3);
  solve_row "F55/Z11" (Instances.frobenius_translations ~p:11 ~q:5);
  solve_row "F253/Z23" (Instances.frobenius_translations ~p:23 ~q:11);
  solve_row "AGL5/Z5" (Instances.affine_translations ~p:5);
  solve_row "AGL13/Z13" (Instances.affine_translations ~p:13)

(* ------------------------------------------------------------------ *)
(* E4: small commutator subgroup (Theorem 11 / Corollary 12)          *)
(* ------------------------------------------------------------------ *)

let e4 rng =
  header "E4: HSP in extra-special H_p (Cor 12) — cost poly(input + p), classical p^3"
    [ fmt_s "p"; fmt_s "|G|"; fmt_s "|G'|"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "classical"; fmt_s "ok" ];
  let solve solver inst =
    keep ~algorithm:"commutator" inst
      (fun i -> solver rng i.Instances.group i.Instances.hiding)
      (fun res -> res.Small_commutator.generators)
  in
  List.iter
    (fun p ->
      let inst = Instances.heisenberg_random rng ~p ~m:1 in
      let r, res = solve Small_commutator.solve inst in
      let c = baseline inst in
      row
        [ fmt_i p; order_cell r; fmt_i res.Small_commutator.commutator_order; quantum_cell r;
          classical_cell r; classical_cell c; ok_cell [ r; c ] ])
    [ 2; 3; 5; 7; 11 ];
  header "E4b: ablation — direct Abelian sampling vs the literal Theorem-8 route"
    [ fmt_s "p"; fmt_s "route"; fmt_s "q-class"; fmt_s "ok" ];
  List.iter
    (fun p ->
      List.iter
        (fun (route, solver) ->
          let r, _ = solve solver (Instances.heisenberg_random rng ~p ~m:1) in
          row [ fmt_i p; fmt_s route; classical_cell r; ok_cell [ r ] ])
        [ ("abelian", Small_commutator.solve); ("thm8", Small_commutator.solve_via_theorem8) ])
    [ 3; 5 ];
  header "E4c: dicyclic Q_4n — |G'| = n grows with the group (no separation, still correct)"
    [ fmt_s "n"; fmt_s "|G|"; fmt_s "|G'|"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "ok" ];
  List.iter
    (fun n ->
      let r, res = solve Small_commutator.solve (Instances.dicyclic_random rng ~n) in
      row
        [ fmt_i n; order_cell r; fmt_i res.Small_commutator.commutator_order; quantum_cell r;
          classical_cell r; ok_cell [ r ] ])
    [ 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* E5: Theorem 13 general case — wreath products, vs Rötteler–Beth    *)
(* ------------------------------------------------------------------ *)

let e5 rng =
  header "E5: HSP in Z_2^k wr Z_2 (Thm 13 general) vs Rötteler–Beth vs classical"
    [ fmt_s "k"; fmt_s "|G|"; fmt_s "algo"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "ok" ];
  List.iter
    (fun k ->
      let inst = Instances.wreath_random rng ~k in
      (* each algorithm solves the same instance; Runner resets its
         counters *)
      List.iter
        (fun (algorithm, solver) ->
          let r = Runner.run ~algorithm inst ~solver in
          row
            [ fmt_i k; order_cell r; fmt_s algorithm; quantum_cell r; classical_cell r;
              ok_cell [ r ] ])
        [ ( "thm13",
            fun i ->
              (Elem_abelian2.solve_general rng i.Instances.group ~n_gens:(Wreath.base_gens k)
                 i.Instances.hiding)
                .Elem_abelian2.generators );
          ("RB", fun i -> Roetteler_beth.solve rng ~k i.Instances.hiding);
          ("classic", brute_force) ])
    [ 2; 3; 4; 5 ];
  header "E5b: non-cyclic factor group — Z_2^4 x| V_4 (Thm 13 general, |G/N| = 4)"
    [ fmt_s "|G|"; fmt_s "|G/N|"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "ok" ];
  let top = [ Perm.of_cycles 4 [ [ 0; 1 ]; [ 2; 3 ] ]; Perm.of_cycles 4 [ [ 0; 2 ]; [ 1; 3 ] ] ] in
  let g = Semidirect_perm.group ~n:4 ~top in
  let n_gens = Semidirect_perm.base_gens ~n:4 in
  for _ = 1 to 3 do
    let inst = Instances.make ~name:"Z2^4:V4" g (Group.random_subgroup_gens rng g) in
    let solve i = Elem_abelian2.solve_general rng g ~n_gens i.Instances.hiding in
    let r, res = keep ~algorithm:"thm13-general" inst solve (fun x -> x.Elem_abelian2.generators) in
    row
      [ order_cell r; fmt_i res.Elem_abelian2.quotient_order; quantum_cell r; classical_cell r;
        ok_cell [ r ] ]
  done

(* ------------------------------------------------------------------ *)
(* E6: Theorem 13 cyclic-factor case — Z_2^n x| Z_m                   *)
(* ------------------------------------------------------------------ *)

let e6 rng =
  let solve inst n_gens =
    keep ~algorithm:"thm13-cyclic" inst
      (fun i -> Elem_abelian2.solve_cyclic rng i.Instances.group ~n_gens i.Instances.hiding)
      (fun res -> res.Elem_abelian2.generators)
  in
  header "E6: HSP in Z_2^n x| Z_m (Thm 13, cyclic factor) — |V| = O(log |G/N|)"
    [ fmt_s "n"; fmt_s "m"; fmt_s "|G|"; fmt_s "|V|"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "ok" ];
  List.iter
    (fun (n, m) ->
      let r, res = solve (Instances.semidirect_random rng ~n ~m) (Semidirect.base_gens ~n) in
      row
        [ fmt_i n; fmt_i m; order_cell r; fmt_i res.Elem_abelian2.transversal_size;
          quantum_cell r; classical_cell r; ok_cell [ r ] ])
    [ (3, 3); (4, 2); (4, 4); (6, 2); (6, 3); (6, 6); (8, 2); (8, 4); (10, 2) ];
  (* the paper's own Section 6 matrix family *)
  header "E6b: Section 6 matrix groups over GF(2)"
    [ fmt_s "k"; fmt_s "|G|"; fmt_s "q-quant"; fmt_s "ok" ];
  List.iter
    (fun (a, vs) ->
      let k = Array.length a in
      let g = Matrix_group.section6_group ~p:2 ~a vs in
      let n_gens = Group.normal_closure g (Matrix_group.section6_normal_gens ~p:2 ~k vs) in
      let hidden = [ Matrix_group.section6_type_b ~p:2 ~k (Array.make k 1) ] in
      let r, _ = solve (Instances.make ~name:"sec6" g hidden) n_gens in
      row [ fmt_i k; order_cell r; quantum_cell r; ok_cell [ r ] ])
    [
      ([| [| 0; 1 |]; [| 1; 1 |] |], [ [| 1; 0 |]; [| 0; 1 |] ]);
      ( [| [| 0; 1; 0 |]; [| 0; 0; 1 |]; [| 1; 0; 0 |] |],
        [ [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] ] );
    ]

(* ------------------------------------------------------------------ *)
(* E7: Ettinger–Høyer contrast on dihedral groups                     *)
(* ------------------------------------------------------------------ *)

let e7 rng =
  header
    "E7: Ettinger-Hoyer on D_n — O(log n) queries but Theta(n) classical post-processing"
    [ fmt_s "n"; fmt_s "|G|"; fmt_s "q-quant"; fmt_s "scanned"; fmt_s "classical"; fmt_s "ok" ];
  List.iter
    (fun n ->
      let d = (n / 3) + 1 in
      let inst = Instances.dihedral_reflection ~n ~d in
      (* the answer {1, s^slope t} is H exactly when slope = d *)
      let r, res =
        keep ~algorithm:"ettinger-hoyer" inst
          (fun i -> Ettinger_hoyer.solve rng ~n i.Instances.hiding)
          (Option.fold ~none:[] ~some:(fun x -> [ Dihedral.reflection n x.Ettinger_hoyer.slope ]))
      in
      let c = baseline inst in
      let scanned, ok =
        match res with
        | Some x -> (fmt_i x.Ettinger_hoyer.candidates_scanned, ok_cell [ r; c ])
        | None -> (fmt_s "-", fmt_s "fail")
      in
      row [ fmt_i n; order_cell r; quantum_cell r; scanned; classical_cell c; ok ])
    [ 8; 16; 32; 64; 128; 256 ]

(* ------------------------------------------------------------------ *)
(* E8: constructive membership (Theorem 6)                            *)
(* ------------------------------------------------------------------ *)

let e8 rng =
  header "E8: constructive membership in Abelian subgroups (Thm 6)"
    [ fmt_s "ambient"; fmt_s "exponent"; fmt_s "expect"; fmt_s "member"; fmt_s "q-quant";
      fmt_s "ok" ];
  let run name g hs target bound ~expect =
    let r, member =
      Runner.closed_form ~instance:name ~algorithm:"membership" (fun queries ->
          let member =
            Option.is_some (Membership.express rng g ~hs target ~order_bound:bound ~queries)
          in
          (member = expect, member))
    in
    let yes_no b = if b then "yes" else "no" in
    row
      [ fmt_s name; fmt_i bound; fmt_s (yes_no expect); fmt_s (yes_no member); quantum_cell r;
        ok_cell [ r ] ]
  in
  let z = Cyclic.product [| 12; 18 |] in
  (* 2 (2, 3) + 2 (0, 6) = (4, 18) = (4, 0) *)
  run "Z12xZ18" z [ [| 2; 3 |]; [| 0; 6 |] ] [| 4; 0 |] 36 ~expect:true;
  (* every element of the subgroup has an even first coordinate *)
  run "Z12xZ18" z [ [| 2; 3 |]; [| 0; 6 |] ] [| 1; 0 |] 36 ~expect:false;
  let z2 = Cyclic.product [| 16; 9 |] in
  run "Z16xZ9" z2 [ [| 2; 0 |]; [| 0; 3 |] ] [| 6; 6 |] 144 ~expect:true;
  let s6 = Perm.symmetric 6 in
  let a = Perm.of_cycles 6 [ [ 0; 1; 2 ] ] and b = Perm.of_cycles 6 [ [ 3; 4 ] ] in
  run "S_6" s6 [ a; b ] (Perm.compose a b) 6 ~expect:true;
  (* b commutes with a but lies outside <a>: a negative instance *)
  run "S_6" s6 [ a ] b 6 ~expect:false

(* ------------------------------------------------------------------ *)
(* E9: exhaustive correctness sweeps over full subgroup lattices      *)
(* ------------------------------------------------------------------ *)

(* Each sweep seeds its own stream, so E9 ignores the experiment's. *)
let e9 _ =
  header
    "E9: exhaustive sweeps — every subgroup of each group solved by the applicable theorem"
    [ fmt_s "group"; fmt_s "|G|"; fmt_s "thm"; fmt_s "#subs"; fmt_s "solved"; fmt_s "ok" ];
  (* one row: [solve] tried on every subgroup in [subs]; the sweep
     passes when it solves them all *)
  let sweep name g thm subs solve =
    let reports =
      List.map
        (fun h_elems ->
          Runner.run ~algorithm:thm (Instances.make ~name g h_elems) ~solver:(fun i ->
              solve i.Instances.hiding))
        subs
    in
    let solved = List.length (List.filter (fun r -> r.Runner.ok) reports) in
    row
      [ fmt_s name; order_cell (List.hd reports); fmt_s thm; fmt_i (List.length subs);
        fmt_i solved; ok_cell reports ]
  in
  let sweep_thm11 : 'a. string -> 'a Group.t -> unit =
   fun name g ->
    let r = Random.State.make [| Hashtbl.hash name |] in
    sweep name g "11" (Subgroup_lattice.all_subgroups g) (Small_commutator.solve_gens r g)
  in
  sweep_thm11 "D_4" (Dihedral.group 4);
  sweep_thm11 "D_6" (Dihedral.group 6);
  sweep_thm11 "Q_8" (Dicyclic.group 2);
  sweep_thm11 "Q_12" (Dicyclic.group 3);
  sweep_thm11 "H_3" (Extraspecial.group ~p:3 ~m:1);
  sweep_thm11 "F_21" (Metacyclic.frobenius ~p:7 ~q:3);
  (* wreath k = 2 through Theorem 13 *)
  let r = Random.State.make [| 777 |] in
  let g = Wreath.group 2 in
  sweep "w(k=2)" g "13" (Subgroup_lattice.all_subgroups g) (fun hiding ->
      (Elem_abelian2.solve_general r g ~n_gens:(Wreath.base_gens 2) hiding)
        .Elem_abelian2.generators);
  (* normal subgroups of S_4 through Theorem 8 *)
  let r = Random.State.make [| 888 |] in
  let s4 = Perm.symmetric 4 in
  sweep "S_4 (nrm)" s4 "8" (Subgroup_lattice.normal_subgroups s4) (fun hiding ->
      (Normal_hsp.solve r s4 hiding).Normal_hsp.generators)

(* ------------------------------------------------------------------ *)
(* E10: dense vs sparse state-vector backends                         *)
(* ------------------------------------------------------------------ *)

let e10 rng =
  header
    "E10: dense vs sparse backend — planted Abelian HSP on Z_d1 x Z_d2, H = prod m_i Z_di"
    [ fmt_s "dims"; fmt_s "|G|"; fmt_s "backend"; fmt_s "q-quant"; fmt_s "gates"; fmt_s "dft-fib";
      fmt_s "peak-sup"; fmt_s "peak-dns"; fmt_s "ok"; fmt_s "claim" ];
  let solve_planted ~dims ~moduli ~backend =
    let queries = Quantum.Query.create () in
    let draw =
      Quantum.Coset_state.sampler_with_subgroup ~backend ~dims
        ~subgroup:(Instances.quotient_gens ~dims ~moduli) ~queries ()
    in
    let in_h = Instances.quotient_mem ~moduli and f = Instances.quotient_oracle ~moduli in
    Quantum.Metrics.reset ();
    let gens, _ = Abelian_hsp.solve_dims rng ~draw ~dims ~f ~quantum:queries ~verify:in_h () in
    let m = Quantum.Metrics.snapshot () in
    (* "generates exactly H": canonical-HNF equality, outside the ledger
       window (Zmatrix ticks no counter) *)
    let hnf = Numtheory.Zmatrix.hnf_basis ~dims in
    let ok = hnf gens = hnf (Instances.quotient_gens ~dims ~moduli) in
    (ok, Quantum.Query.count queries, m)
  in
  List.iter
    (fun (dims, moduli) ->
      List.iter
        (fun backend ->
          if backend = Quantum.Backend.Dense && total dims > Quantum.Backend.Caps.dense_state then
            row
              [ fmt_s (show dims); fmt_i (total dims); fmt_s "dense"; fmt_s "(>cap)"; fmt_s "-";
                fmt_s "-"; fmt_s "-"; fmt_s "-"; fmt_s "-"; fmt_s "-" ]
          else begin
            let ok, q, m = solve_planted ~dims ~moduli ~backend in
            let params = Analysis.Cost_check.params ~group_order:(total dims) () in
            row
              [ fmt_s (show dims); fmt_i (total dims);
                fmt_s (Quantum.Backend.choice_to_string backend); fmt_i q;
                fmt_i (m.Quantum.Metrics.gate_apps + m.Quantum.Metrics.dft_apps);
                fmt_i m.Quantum.Metrics.dft_fibres; fmt_i m.Quantum.Metrics.peak_support;
                fmt_i m.Quantum.Metrics.peak_dense_alloc; fmt_s (string_of_bool ok);
                fmt_s (claim_cell "3" ~params ~queries:q m) ]
          end)
        [ Quantum.Backend.Dense; Quantum.Backend.Sparse ])
    [
      ([| 64; 64 |], [| 8; 8 |]);
      ([| 512; 512 |], [| 16; 32 |]);
      ([| 8192; 8192 |], [| 64; 128 |]);
    ]

(* ------------------------------------------------------------------ *)
(* E11: multicore dense backend — determinism across job counts       *)
(* ------------------------------------------------------------------ *)

(* Each workload runs identically at jobs = 1, 2 and 4: a fresh RNG
   with the same seed, a ledger reset, and a digest over every sampled
   outcome.  The ok column asserts the determinism contract — digest
   AND ledger equal to the jobs=1 baseline — and a violation fails the
   run exactly like a cost-claim violation.  The workloads seed their
   own streams, so E11 ignores the experiment's; how the job count
   moves their wall clock is bench/perf's to measure. *)
let e11 _ =
  header
    "E11: dense backend domain pool — bit-identical results required at every job count"
    [ fmt_s "workload"; fmt_s "|G|"; fmt_s "jobs"; fmt_s "digest"; fmt_s "ok" ];
  let run_workload name total f =
    List.iter
      (fun (jobs, digest, ok, ()) ->
        row
          [ fmt_s name; fmt_i total; fmt_i jobs; fmt_s (String.sub (Digest.to_hex digest) 0 8);
            fmt_s (string_of_bool ok) ])
      (across ~seed:0xe11
         ~diverged:(fun jobs ->
           Printf.sprintf "E11 %s at jobs=%d diverges from the jobs=1 run" name jobs)
         (fun rng -> (f rng, ())))
  in
  (* (a) Coset-state Fourier sampling on two large cyclic wires: the
     QFT fast path (FFT over long fibres) plus full-register
     measurement on growing dense registers (2^18, 2^20, 2^22). *)
  List.iter
    (fun (dims, moduli, rounds) ->
      run_workload (show dims) (total dims) (fun rng ->
          let queries = Quantum.Query.create () in
          let draw =
            Quantum.Coset_state.sampler_with_subgroup ~backend:Quantum.Backend.Dense ~dims
              ~subgroup:(Instances.quotient_gens ~dims ~moduli) ~queries ()
          in
          outcome_digest (List.init rounds (fun _ -> draw rng))))
    [
      ([| 512; 512 |], [| 16; 32 |], 6);
      ([| 1024; 1024 |], [| 32; 32 |], 4);
      ([| 2048; 2048 |], [| 64; 64 |], 2);
    ];
  (* (b) Many small wires (4^10 = 2^20): per-wire gates drive the
     gather/transform/scatter kernel over long rest-index loops, plus
     an oracle write and a basis shift — the kernels workload (a)'s
     FFT path does not touch. *)
  let dims = Array.make 10 4 in
  run_workload "4^10-wires" (total dims) (fun rng ->
      let st = ref (Quantum.State.uniform dims) in
      let n = Array.length dims in
      for w = 0 to n - 1 do
        st := Quantum.State.apply_wire !st ~wire:w (Linalg.Cmat.dft dims.(w))
      done;
      st :=
        Quantum.State.apply_oracle_add !st ~in_wires:[ 0; 1; 2 ] ~out_wire:(n - 1)
          ~f:(fun x -> Array.fold_left ( + ) 0 x mod dims.(n - 1));
      st :=
        Quantum.State.apply_basis_map !st (fun x ->
            Array.mapi (fun i xi -> (xi + i) mod dims.(i)) x);
      outcome_digest
        (List.init 3 (fun _ ->
             let outcome, post = Quantum.State.measure rng !st ~wires:[ 0; 3; 7 ] in
             st := post;
             outcome)))

(* ------------------------------------------------------------------ *)
(* E12: sparse coset sampling — shared O(|G|) prep, O(|coset|) rounds *)
(* ------------------------------------------------------------------ *)

(* The sorted-segment sparse backend on a 2^20..2^26 instance ladder at
   jobs = 1, 2 and 4.  The first draw pays the sampler's one-time
   oracle bucketing pass (sampler_preps stays at 1 however many rounds
   follow); the visits column counts the members each later round
   touches, the per-sample O(|coset|) regime.  As in E11, ok asserts
   the determinism contract — digest AND ledger equal to the jobs=1
   baseline — and any divergence fails the run. *)
let e12 _ =
  header
    "E12: sparse coset sampling ladder — O(|G|) prep shared across rounds, bit-identical at every job count"
    [ fmt_s "dims"; fmt_s "|G|"; fmt_s "jobs"; fmt_s "support"; fmt_s "visits";
      fmt_s "digest"; fmt_s "ok" ];
  List.iter
    (fun (dims, moduli, rounds) ->
      let f x =
        Quantum.Backend.encode moduli (Array.map2 (fun xi m -> xi mod m) x moduli)
      in
      List.iter
        (fun (jobs, digest, ok, m) ->
          row
            [ fmt_s (show dims); fmt_i (total dims); fmt_i jobs;
              fmt_i m.Quantum.Metrics.peak_support; fmt_i m.Quantum.Metrics.coset_visits;
              fmt_s (String.sub (Digest.to_hex digest) 0 8); fmt_s (string_of_bool ok) ])
        (across ~seed:0xe12
           ~diverged:(fun jobs ->
             Printf.sprintf "E12 %s at jobs=%d diverges from the jobs=1 run" (show dims) jobs)
           (fun rng ->
             let queries = Quantum.Query.create () in
             let draw =
               Quantum.Coset_state.sampler ~backend:Quantum.Backend.Sparse ~dims ~f ~queries ()
             in
             (* the first draw pays the shared bucketing pass *)
             let d = outcome_digest (List.init (rounds + 1) (fun _ -> draw rng)) in
             (d, Quantum.Metrics.snapshot ()))))
    [
      ([| 1024; 1024 |], [| 16; 16 |], 6);
      ([| 2048; 2048 |], [| 16; 16 |], 4);
      ([| 4096; 4096 |], [| 32; 32 |], 3);
      ([| 8192; 8192 |], [| 64; 64 |], 2);
    ]

(* ------------------------------------------------------------------ *)
(* E13: symbolic coset-state backend (cryptographic group sizes).     *)
(*   a. scaling ladder Z_2^k, k = 20..120: each rung builds a fixed   *)
(*      number of samplers and draws a fixed number of times from     *)
(*      each; every outcome is checked to annihilate the hidden       *)
(*      subgroup, and the symbolic ledger is gated exactly (2 solves  *)
(*      per sampler built, 0 demotions, one rewrite, one draw and k   *)
(*      DFT apps per sample).                                         *)
(*   b. differential gate — symbolic vs dense Fourier-sample          *)
(*      frequencies on small groups, two-sample chi-squared; any      *)
(*      divergence is a claim violation (nonzero exit).               *)
(*   c. one >= 2^100 instance per Theorem 3/6/8/11/13, solved through *)
(*      the symbolic sampler and verified exactly by canonical-HNF    *)
(*      subgroup equality.                                            *)
(* ------------------------------------------------------------------ *)

let e13 rng =
  let module BS = Quantum.Backend_symbolic in
  (* H = span{e_{2i} + e_{2i+1}} over Z_d^r: order d^(r/2), every coset
     proper, the same planted family the symbolic tests use. *)
  let pair_gens ~r =
    List.init (r / 2) (fun i ->
        Array.init r (fun j -> if j = (2 * i) || j = (2 * i) + 1 then 1 else 0))
  in
  let samplers = 4 and draws = 100 in
  header "E13a: symbolic backend scaling — Fourier sampling |x0 + H> in Z_2^k, |H| = 2^(k/2)"
    [ fmt_s "|G|"; fmt_s "log2|H|"; fmt_s "rewrite"; fmt_s "draws"; fmt_s "DFTs"; fmt_s "solves";
      fmt_s "demote"; fmt_s "ok" ];
  (* the counters the ledger gate reads *)
  let gated () =
    let m = Quantum.Metrics.snapshot () in
    Quantum.Metrics.
      [| m.symbolic_solves; m.symbolic_demotions; m.symbolic_rewrites; m.symbolic_samples;
         m.dft_apps |]
  in
  List.iter
    (fun k ->
      let dims = Array.make k 2 and gens = pair_gens ~r:k in
      let before = gated () in
      let annihilates = ref true in
      for _ = 1 to samplers do
        let queries = Quantum.Query.create () in
        let draw =
          Quantum.Coset_state.sampler_with_subgroup ~backend:Quantum.Backend.Symbolic ~dims
            ~subgroup:gens ~queries ()
        in
        for _ = 1 to draws do
          let y = draw rng in
          if not (List.for_all (Quantum.Qft.character_is_trivial_on ~dims y) gens) then
            annihilates := false
        done
      done;
      let ledger = Array.map2 ( - ) (gated ()) before in
      (* One canonicalisation and one memoised dual per sampler built,
         one rewrite and one draw per sample: a per-round solve or a
         demotion is a cost regression.  The sweep still counts one
         DFT application per wire, so the ledger matches the amplitude
         backends'. *)
      let n = samplers * draws in
      let ledger_ok = Array.for_all2 Int.equal ledger [| 2 * samplers; 0; n; n; k * n |] in
      if not !annihilates then
        Printf.printf "claim violation: E13a Z_2^%d symbolic sample outside the H-annihilator\n" k;
      if not ledger_ok then
        Printf.printf
          "claim violation: E13a Z_2^%d ledger, want %d rewrites / %d draws / %d DFTs / %d \
           solves / 0 demotions\n"
          k n n (k * n) (2 * samplers);
      row
        [ fmt_s (Printf.sprintf "2^%d" k); fmt_i (k / 2); fmt_i ledger.(2); fmt_i ledger.(3);
          fmt_i ledger.(4); fmt_i ledger.(0); fmt_i ledger.(1);
          fmt_s (string_of_bool (!annihilates && ledger_ok)) ])
    [ 20; 40; 60; 80; 100; 120 ];
  header "E13b: differential gate — symbolic vs dense sample frequencies (two-sample chi^2)"
    [ fmt_s "dims"; fmt_s "|G|"; fmt_s "n/side"; fmt_s "cells"; fmt_s "chi2"; fmt_s "thresh";
      fmt_s "ok" ];
  let chi2_gate dims gens n =
    let tally backend =
      let queries = Quantum.Query.create () in
      let draw =
        Quantum.Coset_state.sampler_with_subgroup ~backend ~dims ~subgroup:gens ~queries ()
      in
      let t = Hashtbl.create 64 in
      for _ = 1 to n do
        let y = Array.to_list (draw rng) in
        Hashtbl.replace t y (1 + Option.value ~default:0 (Hashtbl.find_opt t y))
      done;
      t
    in
    let a = tally Quantum.Backend.Symbolic in
    let b = tally Quantum.Backend.Dense in
    let cells = Hashtbl.create 64 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace cells k ()) a;
    Hashtbl.iter (fun k _ -> Hashtbl.replace cells k ()) b;
    let stat = ref 0.0 in
    Hashtbl.iter
      (fun k () ->
        let ca = float_of_int (Option.value ~default:0 (Hashtbl.find_opt a k)) in
        let cb = float_of_int (Option.value ~default:0 (Hashtbl.find_opt b k)) in
        if ca +. cb > 0.0 then stat := !stat +. (((ca -. cb) ** 2.0) /. (ca +. cb)))
      cells;
    let ncells = Hashtbl.length cells in
    let df = float_of_int (max 1 (ncells - 1)) in
    let thresh = df +. (6.0 *. sqrt (2.0 *. df)) +. 10.0 in
    let ok = !stat < thresh in
    if not ok then
      Printf.printf "claim violation: E13b symbolic/dense divergence chi2=%.2f > %.2f on %s\n"
        !stat thresh (show dims);
    row
      [ fmt_s (show dims); fmt_i (total dims); fmt_i n; fmt_i ncells;
        fmt_f !stat; fmt_f thresh; fmt_s (string_of_bool ok) ]
  in
  chi2_gate [| 4; 6; 8 |] [ [| 2; 0; 0 |]; [| 0; 3; 4 |] ] 4000;
  chi2_gate [| 2; 2; 2; 2; 2 |] [ [| 1; 1; 0; 0; 0 |]; [| 0; 0; 1; 1; 1 |] ] 4000;
  chi2_gate [| 9; 3; 5 |] [ [| 3; 1; 0 |] ] 4000;
  let recover ~dims ~subgroup rounds =
    let queries = Quantum.Query.create () in
    let draw =
      Quantum.Coset_state.sampler_with_subgroup ~backend:Quantum.Backend.Symbolic ~dims
        ~subgroup ~queries ()
    in
    let ys = List.init rounds (fun _ -> draw rng) in
    (Quantum.Coset_state.annihilator_subgroup ~dims ys, Quantum.Query.count queries)
  in
  header "E13c: theorem instances at >= 2^100 through the symbolic sampler"
    [ fmt_s "instance"; fmt_s "thm"; fmt_s "log2|G|"; fmt_s "queries"; fmt_s "ok" ];
  let emit name thm log2g queries ok =
    if not ok then
      Printf.printf "claim violation: E13c %s (Thm %s) failed exact verification\n" name thm;
    row [ fmt_s name; fmt_s thm; fmt_f log2g; fmt_i queries; fmt_s (string_of_bool ok) ]
  in
  (* A planted subgroup recovered from [rounds] symbolic samples; ok is
     canonical-HNF equality with the plant. *)
  let planted name thm log2g ~dims gens rounds =
    let rec_gens, q = recover ~dims ~subgroup:gens rounds in
    emit name thm log2g q
      (BS.Subgroup.equal (BS.Subgroup.of_gens ~dims gens) (BS.Subgroup.of_gens ~dims rec_gens))
  in
  (* Thm 3: Abelian HSP in Z_4^60 (|G| = 2^120), hidden H of order 2^60
     recovered as the annihilator of its Fourier samples. *)
  planted "Z_4^60" "3" 120.0 ~dims:(Array.make 60 4) (pair_gens ~r:60) 240;
  (* Thm 6: constructive membership in A = Z_8^37 (|A| = 2^111).  The
     quantum register is only the rank-4 coefficient group Z_8^4: the
     relation lattice of (h1, h2, h3, x) is hidden there, its coset
     states are sampled symbolically, and any recovered relation whose
     last coefficient is a unit mod 8 expresses x over h1..h3. *)
  (let n = 37 in
   let l = 8 in
   let dims4 = [| l; l; l; l |] in
   let hs = Array.init 3 (fun _ -> Array.init n (fun _ -> Random.State.int rng l)) in
   let secret = Array.init 3 (fun _ -> Random.State.int rng l) in
   let x =
     Array.init n (fun j ->
         ((secret.(0) * hs.(0).(j)) + (secret.(1) * hs.(1).(j)) + (secret.(2) * hs.(2).(j)))
         mod l)
   in
   let coeff_matrix =
     Array.init n (fun j -> [| hs.(0).(j); hs.(1).(j); hs.(2).(j); x.(j) |])
   in
   let lattice =
     List.map
       (fun v -> Array.map (fun c -> ((c mod l) + l) mod l) v)
       (Numtheory.Zmatrix.kernel_mod ~moduli:(Array.make n l) coeff_matrix)
   in
   let rec_gens, q = recover ~dims:dims4 ~subgroup:lattice 32 in
   let basis = BS.Subgroup.basis (BS.Subgroup.of_gens ~dims:dims4 rec_gens) in
   (* the relation (c1,c2,c3,-1) guarantees a basis row with a unit
      last coefficient; solve it for x's coordinates. *)
   let expressed =
     Array.to_list basis
     |> List.find_opt (fun a -> Numtheory.Arith.gcd a.(3) l = 1)
     |> Option.map (fun a ->
            let s = l - Numtheory.Arith.invmod a.(3) l in
            Array.init n (fun j ->
                ((s * a.(0) * hs.(0).(j)) + (s * a.(1) * hs.(1).(j)) + (s * a.(2) * hs.(2).(j)))
                mod l))
   in
   emit "Z_8^37" "6" 111.0 q (expressed = Some x));
  (* Thm 8: hidden normal subgroup as the kernel of a planted
     surjection Z_2^110 ->> Z_2^3 (|G| = 2^110, quotient order 8). *)
  (let n = 110 in
   let phi =
     Array.init 3 (fun i ->
         Array.init n (fun j -> if j < 3 then (if j = i then 1 else 0) else Random.State.int rng 2))
   in
   let kernel =
     List.map
       (fun v -> Array.map (fun c -> ((c mod 2) + 2) mod 2) v)
       (Numtheory.Zmatrix.kernel_mod ~moduli:(Array.make 3 2) phi)
   in
   planted "ker(2^110->2^3)" "8" 110.0 ~dims:(Array.make n 2) kernel 40);
  (* Thm 11: G of order 2^101 with |G'| = 2 — elements (v, t) in
     Z_2^100 x Z_2 with a central commutator bit.  The hidden subgroup
     contains G', so H/G' is hidden in G/G' ~ Z_2^100.  The row solves
     that Abelian instance symbolically and verifies H/G' only: no
     oracle here answers a query on G itself, so the lift of H/G' back
     to H is not exercised (Small_commutator does it at enumerable
     sizes, E4). *)
  planted "2^101,|G'|=2" "11" 101.0 ~dims:(Array.make 100 2) (pair_gens ~r:100) 400;
  (* Thm 13: G = Z_2^100 x| Z_2 probed through the register Z_2^101.
     The planted elementary-Abelian H is generated by 49 base pairs
     (fixed by the top involution) plus one reflection (w, 1); on the
     probe register it is an Abelian hidden subgroup of order 2^50. *)
  (let n = 100 in
   let base =
     List.init 49 (fun i ->
         Array.init (n + 1) (fun j -> if j = (2 * i) || j = (2 * i) + 1 then 1 else 0))
   in
   let w = Array.init (n + 1) (fun j -> if j >= 98 then 1 else 0) in
   planted "Z_2^100x|Z_2" "13" 101.0 ~dims:(Array.make (n + 1) 2) (w :: base) 420)

(* ------------------------------------------------------------------ *)
(* E14: hsp_served traffic replay — cached service layer              *)
(* ------------------------------------------------------------------ *)

(* Engine-level replay (no socket): a seeded mixed workload over 18
   distinct planted oracles — 12 amplitude-routed, 6 symbolic — is
   submitted from 8 client threads, twice, against one engine.  Pass 1
   populates the artifact cache (each amplitude oracle pays its one
   O(|A|) CSR prep); pass 2 replays identical traffic warm.  The
   repeated-oracle slice then measures the cache's point: the same
   requests through a 1-entry cache thrashed between two oracles (so
   every request rebuilds its buckets) versus through a warm cache.
   Gates, counted as claim violations: total sampler_preps after both
   mixed passes must equal the number of distinct amplitude oracles
   (the warm pass preps nothing), and warm throughput must be at least
   5x the thrashed cold path; that ratio is the one wall-clock reading
   in this harness, and its row prints only the verdict (bench/perf's
   served workload measures throughput and latency).  Each row also
   reports the pass's cache misses, gated exactly: the executor runs
   one request at a time and the cache holds every oracle, so a cold
   mixed pass misses once per distinct oracle and a warm one never,
   however the threads' requests interleave; the thrashed slice misses
   on every request and the warm slice never. *)

(* The workload seeds its own streams, so E14 ignores the experiment's. *)
let e14 _ =
  let module Sv = Hsp_service.Service in
  let module Pr = Hsp_service.Protocol in
  let module Jv = Hsp_service.Jsonv in
  header "E14: hsp_served traffic replay — cache misses, preps, warm/cold gate"
    [ fmt_s "phase"; fmt_s "reqs"; fmt_s "thr"; fmt_s "misses"; fmt_s "preps"; fmt_s "ok" ];
  (* 12 distinct amplitude instances and 6 symbolic ones (Z_2^r at
     r = 100..105, balanced split) — distinct dims give distinct cache
     fingerprints.  The sparse slice carries the cache's payoff: its
     per-draw cost is O(|coset| + |dual|), so the one O(|A|) prep pass
     dominates a cold request.  Dense draws pay a full-register QFT per
     draw regardless of prep, so those instances stay small. *)
  let amp i =
    if i < 4 then
      { Pr.dims = [| 64; 16 * (4 + i) |]; moduli = [| 16; 16 |]; backend = None }
    else
      { Pr.dims = [| 1 lsl (10 + (i mod 3)); 16 * (4 + i) |];
        moduli = [| 16; 16 |];
        backend = Some Quantum.Backend.Sparse }
  in
  let sym i =
    let r = 100 + i in
    { Pr.dims = Array.make r 2;
      moduli = Array.init r (fun j -> if j < r / 2 then 2 else 1);
      backend = None }
  in
  let n_amp = 12 in
  let oracles = List.init n_amp amp @ List.init 6 sym in
  let mk inst k = { Pr.id = Jv.Null; req = Pr.Sample { inst; count = 4; seed = Some k } } in
  let wl_rng = Random.State.make [| 20260809; 14 |] in
  let mixed =
    let a =
      Array.of_list
        (List.concat_map (fun inst -> List.init 6 (fun k -> mk inst k)) oracles)
    in
    (* Fisher–Yates with the fixed workload seed: the replay order is
       part of the experiment definition *)
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int wl_rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  (* [replay engine nthreads reqs] drives the full client path minus
     the socket: worker threads pull from a shared cursor and block in
     [Service.submit], so same-oracle requests really do queue behind
     one another's cold prep.  Returns the wall-clock seconds and
     whether every reply was ok. *)
  let replay engine nthreads reqs =
    let okc = Atomic.make 0 in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length reqs then begin
          (match Option.bind (Jv.member "ok" (Sv.submit engine reqs.(i))) Jv.to_bool_opt with
          | Some true -> Atomic.incr okc
          | _ -> ());
          loop ()
        end
      in
      loop ()
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init nthreads (fun _ -> Thread.create worker ()) in
    List.iter Thread.join threads;
    (Unix.gettimeofday () -. t0, Atomic.get okc = Array.length reqs)
  in
  let preps () = (Quantum.Metrics.snapshot ()).Quantum.Metrics.sampler_preps in
  let emit phase nthreads reqs (_, replies_ok) ~misses ~want_misses ~preps =
    if misses <> want_misses then
      Printf.printf "claim violation: E14 %s cache misses = %d, want %d\n" phase misses
        want_misses;
    row
      [ fmt_s phase; fmt_i (Array.length reqs); fmt_i nthreads; fmt_i misses; fmt_i preps;
        fmt_s (string_of_bool (replies_ok && misses = want_misses)) ]
  in
  let miss_delta (before : Hsp_service.Cache.stats) (after : Hsp_service.Cache.stats) =
    after.Hsp_service.Cache.misses - before.Hsp_service.Cache.misses
  in
  Quantum.Metrics.reset ();
  let engine = Sv.create ~seed:2026 () in
  Sv.start engine;
  let preps0 = preps () in
  let s0 = Sv.cache_stats engine in
  let cold = replay engine 8 mixed in
  let s1 = Sv.cache_stats engine in
  let preps1 = preps () - preps0 in
  emit "mixed-cold" 8 mixed cold ~misses:(miss_delta s0 s1) ~want_misses:(List.length oracles)
    ~preps:preps1;
  let warm = replay engine 8 mixed in
  let s2 = Sv.cache_stats engine in
  let preps2 = preps () - preps0 in
  emit "mixed-warm" 8 mixed warm ~misses:(miss_delta s1 s2) ~want_misses:0 ~preps:(preps2 - preps1);
  Sv.stop engine;
  if preps2 <> n_amp then begin
    incr failures;
    Printf.printf
      "claim violation: E14 sampler_preps = %d after warm replay, want %d (one per distinct amplitude oracle)\n"
      preps2 n_amp
  end;
  (* Repeated-oracle slice.  Same engine machinery both sides, one
     thread each.  Thrashing a 1-entry cache between two same-shaped
     oracles is the uncached path: every request rebuilds its O(|A|)
     buckets. *)
  let rep =
    { Pr.dims = [| 8192; 128 |]; moduli = [| 64; 16 |];
      backend = Some Quantum.Backend.Sparse }
  in
  let alt =
    { Pr.dims = [| 128; 8192 |]; moduli = [| 16; 64 |];
      backend = Some Quantum.Backend.Sparse }
  in
  let n_rep = 24 in
  let rep_reqs =
    Array.init n_rep (fun k ->
        { Pr.id = Jv.Null; req = Pr.Sample { inst = rep; count = 1; seed = Some k } })
  in
  let thrash_reqs =
    Array.init n_rep (fun k ->
        { Pr.id = Jv.Null;
          req = Pr.Sample { inst = (if k mod 2 = 0 then rep else alt); count = 1; seed = Some k } })
  in
  let cold_engine = Sv.create ~cache_entries:1 ~seed:2026 () in
  Sv.start cold_engine;
  let c0 = Sv.cache_stats cold_engine in
  let pc0 = preps () in
  let ((cold_wall, _) as coldr) = replay cold_engine 1 thrash_reqs in
  let c1 = Sv.cache_stats cold_engine in
  emit "rep-cold" 1 thrash_reqs coldr ~misses:(miss_delta c0 c1) ~want_misses:n_rep ~preps:(preps () - pc0);
  Sv.stop cold_engine;
  let warm_engine = Sv.create ~seed:2026 () in
  Sv.start warm_engine;
  (* prime the cache with one untimed request, then replay *)
  ignore
    (Sv.submit warm_engine
       { Pr.id = Jv.Null; req = Pr.Sample { inst = rep; count = 1; seed = Some 0 } });
  let w0 = Sv.cache_stats warm_engine in
  let pw0 = preps () in
  let ((warm_wall, _) as warmr) = replay warm_engine 1 rep_reqs in
  let w1 = Sv.cache_stats warm_engine in
  emit "rep-warm" 1 rep_reqs warmr ~misses:(miss_delta w0 w1) ~want_misses:0 ~preps:(preps () - pw0);
  Sv.stop warm_engine;
  let speedup = cold_wall /. warm_wall in
  row
    [ fmt_s "speedup"; fmt_i n_rep; fmt_i 1; fmt_s "-"; fmt_s "-";
      fmt_s (string_of_bool (speedup >= 5.0)) ];
  if speedup < 5.0 then
    Printf.printf
      "claim violation: E14 warm/cold throughput ratio %.2fx < 5x on the repeated-oracle workload\n"
      speedup

(* ------------------------------------------------------------------ *)
(* Smoke: one small instance per theorem — the CI gate.  Fast, runs   *)
(* through Runner so each row carries the ok verdict and the ledger;  *)
(* a false ok cell or an OVER claim cell fails the run.               *)
(* ------------------------------------------------------------------ *)

let smoke rng =
  header "Smoke: one small instance per theorem (CI gate)"
    [ fmt_s "instance"; fmt_s "algo"; fmt_s "thm"; fmt_s "ok"; fmt_s "queries"; fmt_s "gates";
      fmt_s "claim" ];
  (* The claim gate counts every oracle evaluation — classical plus
     quantum — since the theorems bound total query complexity and our
     Theorem-8/11 routes schedule some of the paper's quantum queries
     as classical evaluations on the quotient. *)
  List.iter
    (fun (t : Runner.theorem_run) ->
      let r = t.Runner.report in
      let queries = r.Runner.classical_queries + r.Runner.quantum_queries in
      let params =
        Analysis.Cost_check.params ~group_order:t.Runner.order ~quotient_order:t.Runner.quotient
          ~commutator_order:t.Runner.commutator ~nu:t.Runner.nu ()
      in
      row
        [ fmt_s r.Runner.instance; fmt_s r.Runner.algorithm; fmt_s t.Runner.thm;
          fmt_s (string_of_bool r.Runner.ok); fmt_i queries;
          fmt_i
            (r.Runner.metrics.Quantum.Metrics.gate_apps
            + r.Runner.metrics.Quantum.Metrics.dft_apps);
          fmt_s (claim_cell t.Runner.thm ~params ~queries r.Runner.metrics) ])
    (Runner.theorem_runs rng)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let all = [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14) ] in
  let named = all @ [ ("smoke", smoke) ] in
  (match List.filter (fun a -> not (List.mem_assoc a named)) args with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown experiment(s): %s\nvalid: %s\n" (String.concat " " unknown)
        (String.concat " " (List.map fst named));
      exit 2);
  Printf.printf "HSP benchmark harness — reproduces EXPERIMENTS.md (seed fixed)\n";
  (* each experiment draws from its own stream, so a block prints the
     same whatever ran before it *)
  let run name = (List.assoc name named) (Random.State.make [| run_seed; Hashtbl.hash name |]) in
  List.iter run (if args = [] then List.map fst all else args);
  if !failures > 0 then begin
    Printf.printf "FAILED: %d gate failure(s) — see the gate failure / claim violation lines\n"
      !failures;
    exit 1
  end
