(* Command-line interface to the HSP solvers.

     hsp solve-simon --n 8 --mask 10110010
     hsp solve-abelian --dims 8192,8192 --moduli 64,128 --backend sparse
     hsp solve-abelian --dims 2^200 --moduli 2^100,1^100 --backend symbolic
     hsp solve-dihedral --n 24 --d 4
     hsp solve-heisenberg --p 5
     hsp solve-wreath --k 3
     hsp solve-semidirect --n 4 --m 4
     hsp factor 221
     hsp dlog --p 101 --g 2 --h 55
     hsp order --modulus 77 --base 2

   Every command prints the answer, the oracle-query accounting, and a
   correctness check against the planted ground truth.  A global
   [--backend dense|sparse|symbolic|auto] flag selects the
   Fourier-sampling backend (auto, the default, leaves it to each
   sampling route's rule); [--jobs N] sets the parallel
   kernels' worker-domain count (default: the HSP_JOBS environment
   variable, then 1 — results are identical at any value). *)

open Groups
open Hsp
open Cmdliner

let rng_of_seed seed = Random.State.make [| seed |]

let seed_arg =
  let doc = "PRNG seed (all algorithms are Las Vegas; the answer is always verified)." in
  Arg.(value & opt int 2026 & info [ "seed" ] ~doc)

let backend_arg =
  let backend_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun msg -> `Msg msg) (Quantum.Backend.choice_of_string s)),
        fun fmt c ->
          Format.pp_print_string fmt
            (match c with None -> "auto" | Some c -> Quantum.Backend.choice_to_string c) )
  in
  let doc =
    "State simulation backend: $(b,dense) (exact amplitude array, capped at 2^24 amplitudes),      $(b,sparse) (sorted segment of nonzero amplitudes, scales to 2^26 coset sampling and      beyond), $(b,symbolic) (amplitude-free coset-state algebra: exact sampling at      cryptographic group sizes such as Z_2^200, for the commands that accept subgroup      structure; commands that expand an oracle sample on sparse under it) or $(b,auto) (no      choice: the oracle route is dense up to 2^22 group elements and sparse beyond, and the      planted route of solve-abelian samples on symbolic).  It picks the backend of the      Fourier-sampling route; gate-level circuits always run on dense.  Defaults to $(b,auto)."
  in
  Arg.(value & opt backend_conv None & info [ "backend" ] ~doc)

(* Options shared by every subcommand: backend selection, the parallel
   job count, plus the two observability switches. *)
type common = {
  backend : Quantum.Backend.choice option;
  jobs : int option;
  trace : bool;
  metrics : bool;
}

let jobs_arg =
  let doc =
    "Worker domains for the simulator's parallel kernels (1..64).  Results are      bit-for-bit identical at every job count; the default is the $(b,HSP_JOBS)      environment variable, then 1 (serial)."
  in
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 && n <= Quantum.Parallel.max_jobs -> Ok n
      | _ ->
          Error
            (`Msg
              (Printf.sprintf "expected a job count in 1..%d, got %s"
                 Quantum.Parallel.max_jobs s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some jobs_conv) None & info [ "jobs"; "j" ] ~doc ~docv:"N")

let trace_arg =
  let doc =
    "Emit structured cost-ledger trace events (phase completions, per-round sampler      events) through the $(b,hsp.trace) log source while the algorithm runs."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let metrics_arg =
  let doc =
    "Print the simulator cost ledger after the run: gate and DFT applications, fibre      counts, basis-map/oracle ops, peak sparse support, pruned amplitudes, peak dense      allocation, and per-phase wall-clock seconds."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let common_arg =
  let make backend jobs trace metrics = { backend; jobs; trace; metrics } in
  Term.(const make $ backend_arg $ jobs_arg $ trace_arg $ metrics_arg)

let setup common =
  Quantum.Backend.set_default common.backend;
  (match common.jobs with None -> () | Some j -> Quantum.Parallel.set_jobs j);
  Quantum.Metrics.reset ();
  if common.trace then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Log.install_trace ()
  end

(* Invalid_argument out of the solvers is user-facing misconfiguration
   (a register the chosen backend cannot hold,
   invalid instance parameters), not an internal error — report it as
   such instead of letting cmdliner print an uncaught-exception box. *)
let guard f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "hsp: %s\n" msg;
    2

(* Run the command body under [guard], then print the accumulated
   ledger if --metrics was given (even after a failed run: partial
   costs are still informative). *)
let finish common f =
  let code = guard f in
  if common.metrics then
    Format.printf "%a@." Quantum.Metrics.pp (Quantum.Metrics.snapshot ());
  code

(* Run [solver] on [inst] through Runner.run, which checks its answer
   against the planted subgroup, and print the report. *)
let solve ~algorithm inst solver =
  let r = Runner.run ~algorithm inst ~solver in
  Printf.printf "group order     : %d\n" r.Runner.group_order;
  Printf.printf "subgroup order  : %d\n" r.Runner.subgroup_order;
  Printf.printf "quantum queries : %d\n" r.Runner.quantum_queries;
  Printf.printf "classical queries: %d\n" r.Runner.classical_queries;
  Printf.printf "correct         : %b\n" r.Runner.ok;
  if r.Runner.ok then 0 else 1

let simon_cmd =
  let n_arg =
    Arg.(value & opt int 6 & info [ "n" ] ~doc:"Number of bits (group is Z_2^n).")
  in
  let mask_arg =
    Arg.(value & opt string "101010" & info [ "mask" ] ~doc:"Secret bit mask, e.g. 10110.")
  in
  let run common seed n mask =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    let mask_bits =
      Array.init (String.length mask) (fun i -> Char.code mask.[i] - Char.code '0')
    in
    let n = if String.length mask = n then n else String.length mask in
    Printf.printf "Simon's problem on Z_2^%d, mask %s\n" n mask;
    solve ~algorithm:"abelian" (Instances.simon ~n ~mask:mask_bits) (fun i ->
        let gens = Abelian_hsp.solve rng i.Instances.group i.Instances.hiding in
        List.iter
          (fun g ->
            Printf.printf "generator: %s\n"
              (String.concat "" (List.map string_of_int (Array.to_list g))))
          gens;
        gens)
  in
  Cmd.v
    (Cmd.info "solve-simon" ~doc:"Solve Simon's problem (Abelian HSP on Z_2^n).")
    Term.(const run $ common_arg $ seed_arg $ n_arg $ mask_arg)

let dihedral_cmd =
  let n_arg = Arg.(value & opt int 24 & info [ "n" ] ~doc:"D_n: the n-gon.") in
  let d_arg =
    Arg.(value & opt int 4 & info [ "d" ] ~doc:"Hidden normal rotation subgroup <s^d>; d | n.")
  in
  let run common seed n d =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "Hidden normal subgroup <s^%d> of D_%d (Theorem 8)\n" d n;
    solve ~algorithm:"normal" (Instances.dihedral_rotation ~n ~d) (fun i ->
        let res = Normal_hsp.solve rng i.Instances.group i.Instances.hiding in
        Printf.printf "factor group order: %d\n" res.Normal_hsp.quotient_order;
        res.Normal_hsp.generators)
  in
  Cmd.v
    (Cmd.info "solve-dihedral" ~doc:"Find a hidden normal rotation subgroup of D_n (Theorem 8).")
    Term.(const run $ common_arg $ seed_arg $ n_arg $ d_arg)

let heisenberg_cmd =
  let p_arg = Arg.(value & opt int 3 & info [ "p" ] ~doc:"Prime p; the group is H_p, order p^3.") in
  let run common seed p =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "HSP in the extra-special group H_%d (Theorem 11 / Corollary 12)\n" p;
    solve ~algorithm:"commutator" (Instances.heisenberg_random rng ~p ~m:1) (fun i ->
        let res = Small_commutator.solve rng i.Instances.group i.Instances.hiding in
        Printf.printf "|G'| = %d\n" res.Small_commutator.commutator_order;
        res.Small_commutator.generators)
  in
  Cmd.v
    (Cmd.info "solve-heisenberg" ~doc:"Solve a random HSP instance in an extra-special p-group.")
    Term.(const run $ common_arg $ seed_arg $ p_arg)

let wreath_cmd =
  let k_arg = Arg.(value & opt int 3 & info [ "k" ] ~doc:"The group is Z_2^k wr Z_2.") in
  let run common seed k =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "HSP in Z_2^%d wr Z_2 (Theorem 13, general case)\n" k;
    solve ~algorithm:"thm13-general" (Instances.wreath_random rng ~k) (fun i ->
        let res =
          Elem_abelian2.solve_general rng i.Instances.group ~n_gens:(Wreath.base_gens k)
            i.Instances.hiding
        in
        Printf.printf "transversal size: %d\n" res.Elem_abelian2.transversal_size;
        res.Elem_abelian2.generators)
  in
  Cmd.v
    (Cmd.info "solve-wreath" ~doc:"Solve a random HSP instance in a wreath product (Theorem 13).")
    Term.(const run $ common_arg $ seed_arg $ k_arg)

let semidirect_cmd =
  let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Base Z_2^n.") in
  let m_arg = Arg.(value & opt int 4 & info [ "m" ] ~doc:"Cyclic top Z_m; m | n.") in
  let run common seed n m =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "HSP in Z_2^%d x| Z_%d (Theorem 13, cyclic factor)\n" n m;
    solve ~algorithm:"thm13-cyclic" (Instances.semidirect_random rng ~n ~m) (fun i ->
        let res =
          Elem_abelian2.solve_cyclic rng i.Instances.group ~n_gens:(Semidirect.base_gens ~n)
            i.Instances.hiding
        in
        Printf.printf "transversal size: %d (|G/N| = %d)\n" res.Elem_abelian2.transversal_size
          res.Elem_abelian2.quotient_order;
        res.Elem_abelian2.generators)
  in
  Cmd.v
    (Cmd.info "solve-semidirect"
       ~doc:"Solve a random HSP instance in Z_2^n x| Z_m (Theorem 13, polynomial case).")
    Term.(const run $ common_arg $ seed_arg $ n_arg $ m_arg)

let abelian_cmd =
  let dims_arg =
    Arg.(
      value
      & opt string "8192,8192"
      & info [ "dims" ]
          ~doc:
            "Comma-separated cyclic factors: the group is Z_d1 x ... x Z_dr.  A factor \
             written $(b,b^k) expands to k copies of b, so --dims 2^200 is Z_2^200.")
  in
  let moduli_arg =
    Arg.(
      value
      & opt string "64,128"
      & info [ "moduli" ]
          ~doc:
            "Comma-separated m_i with m_i | d_i; the hidden subgroup is \
             H = m_1 Z_d1 x ... x m_r Z_dr and the oracle is f(x) = (x_i mod m_i).  \
             The $(b,b^k) repeat syntax of --dims works here too.")
  in
  let parse_ints label s =
    let expand t =
      match Instances.expand_repeat t with
      | Ok xs -> xs
      | Error _ ->
          invalid_arg
            (Printf.sprintf
               "%s: expected comma-separated integers (b^k repeats b k times), got %S" label s)
    in
    Array.of_list (List.concat_map expand (String.split_on_char ',' s))
  in
  let run common seed dims_s moduli_s =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    let dims = parse_ints "--dims" dims_s in
    let moduli = parse_ints "--moduli" moduli_s in
    let r = Array.length dims in
    if Array.length moduli <> r then begin
      Printf.eprintf "error: --dims and --moduli must have the same length\n";
      exit 2
    end;
    Option.iter
      (fun msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2)
      (Instances.quotient_violation ~dims ~moduli);
    (* Sizes in this command routinely overflow an int (that is the
       point of the symbolic backend), so every size is reported as an
       exact integer when formable and as a power of two otherwise. *)
    let total = Quantum.Backend.total_of_opt dims in
    let log2_of a = Array.fold_left (fun acc d -> acc +. (log (float_of_int d) /. log 2.)) 0. a in
    let size_str total log2 =
      match total with
      | Some t -> string_of_int t
      | None -> Printf.sprintf "2^%.1f" log2
    in
    (* Ground truth as subgroup structure: H = <m_i e_i> in canonical
       HNF form.  This is what the symbolic sampler consumes, what the
       order reports come from, and what the recovered generators are
       checked against — at any size, no enumeration anywhere. *)
    let truth = Instances.quotient_subgroup ~dims ~moduli in
    let h_log2 = Quantum.Backend_symbolic.Subgroup.order_log2 truth in
    let h_order = Quantum.Backend_symbolic.Subgroup.order_int truth in
    let show a = String.concat "," (List.map string_of_int (Array.to_list a)) in
    Printf.printf "Abelian HSP on Z_{%s}, |G| = %s%s\n" dims_s (size_str total (log2_of dims))
      (match total with
      | None -> " (beyond integer range; symbolic backend only)"
      | Some t when t > Quantum.Backend.Caps.dense_state -> " (beyond the dense 2^24 cap)"
      | Some _ -> "");
    Printf.printf "hidden H = prod m_i Z_{d_i}, moduli (%s), |H| = %s\n" moduli_s
      (size_str h_order h_log2);
    (* The planted instance knows H, so the simulator is handed its
       generators instead of an oracle to expand: symbolic rounds (the
       planted route's choice when none is made) cost O(r^2) however
       large the group (Z_2^200 in milliseconds), and dense/sparse
       rounds enumerate one coset, O(|H|) instead of the O(|G|) oracle
       expansion.  Still one quantum query per round. *)
    let backend = Quantum.Coset_state.planted_backend () in
    Printf.printf "backend         : %s\n" (Quantum.Backend.choice_to_string backend);
    let queries = Quantum.Query.create () in
    let draw = Quantum.Coset_state.sampler_of_subgroup ~backend ~sub:truth ~queries () in
    let res = Abelian_hsp.solve_quotient rng ~truth ~draw ~dims ~moduli ~quantum:queries () in
    let n_gens = List.length res.Abelian_hsp.gens in
    List.iteri
      (fun i g ->
        if i < 8 then Printf.printf "generator: (%s)\n" (show g)
        else if i = 8 then Printf.printf "... (%d more generators)\n" (n_gens - 8))
      res.Abelian_hsp.gens;
    Printf.printf "rounds          : %d\n" res.Abelian_hsp.rounds;
    Printf.printf "quantum queries : %d\n" (Quantum.Query.count queries);
    Printf.printf "seconds         : %.3f\n" res.Abelian_hsp.seconds;
    Printf.printf "correct         : %b\n" res.Abelian_hsp.ok;
    if res.Abelian_hsp.ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "solve-abelian"
       ~doc:
         "Solve a planted Abelian HSP on Z_d1 x ... x Z_dr with hidden subgroup \
          prod m_i Z_di.  By default (or with --backend symbolic) the simulation is \
          amplitude-free (closed-form coset algebra) and cryptographic sizes such as \
          --dims 2^200 run in milliseconds per sample, exactly.  With --backend sparse, \
          group sizes far beyond the dense 2^24 amplitude cap are simulable on amplitudes, \
          because coset states and their Fourier transforms have support |H| and |G|/|H| \
          restricted to a small product grid.")
    Term.(const run $ common_arg $ seed_arg $ dims_arg $ moduli_arg)

let dicyclic_cmd =
  let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~doc:"The group is Q_4n.") in
  let run common seed n =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "HSP in the dicyclic group Q_%d (Theorem 11; |G'| = %d)\n" (4 * n) n;
    solve ~algorithm:"commutator" (Instances.dicyclic_random rng ~n) (fun i ->
        (Small_commutator.solve rng i.Instances.group i.Instances.hiding)
          .Small_commutator.generators)
  in
  Cmd.v
    (Cmd.info "solve-dicyclic" ~doc:"Solve a random HSP instance in a dicyclic group (Theorem 11).")
    Term.(const run $ common_arg $ seed_arg $ n_arg)

let frobenius_cmd =
  let p_arg = Arg.(value & opt int 7 & info [ "p" ] ~doc:"Prime base Z_p.") in
  let q_arg = Arg.(value & opt int 3 & info [ "q" ] ~doc:"Prime top Z_q; q | p-1.") in
  let run common seed p q =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "Hidden translation subgroup of the Frobenius group Z_%d x| Z_%d (Theorem 8)\n"
      p q;
    solve ~algorithm:"normal" (Instances.frobenius_translations ~p ~q) (fun i ->
        let res = Normal_hsp.solve rng i.Instances.group i.Instances.hiding in
        Printf.printf "factor group order: %d\n" res.Normal_hsp.quotient_order;
        res.Normal_hsp.generators)
  in
  Cmd.v
    (Cmd.info "solve-frobenius"
       ~doc:"Find the hidden normal translation subgroup of a Frobenius group (Theorem 8).")
    Term.(const run $ common_arg $ seed_arg $ p_arg $ q_arg)

let factor_cmd =
  let n_arg = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  let run common seed n =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    match Quantum.Shor.factor rng n with
    | Some (a, b) ->
        Printf.printf "%d = %d * %d\n" n a b;
        0
    | None ->
        Printf.printf "attempts exhausted\n";
        1
    | exception Invalid_argument msg ->
        Printf.printf "error: %s\n" msg;
        2
  in
  Cmd.v
    (Cmd.info "factor" ~doc:"Factor an integer with simulated Shor order finding.")
    Term.(const run $ common_arg $ seed_arg $ n_arg)

let dlog_cmd =
  let p_arg = Arg.(value & opt int 101 & info [ "p" ] ~doc:"Prime modulus.") in
  let g_arg = Arg.(value & opt int 2 & info [ "g" ] ~doc:"Base.") in
  let h_arg = Arg.(value & opt int 55 & info [ "target" ] ~doc:"Target element h.") in
  let run common seed p g h =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    match Dlog.discrete_log rng ~p ~g ~h with
    | Some l ->
        Printf.printf "log_%d(%d) mod %d = %d\n" g h p l;
        0
    | None ->
        Printf.printf "%d is not in <%d> mod %d\n" h g p;
        1
  in
  Cmd.v
    (Cmd.info "dlog" ~doc:"Discrete logarithm in Z_p^* via Abelian Fourier sampling.")
    Term.(const run $ common_arg $ seed_arg $ p_arg $ g_arg $ h_arg)

let check_circuit_cmd =
  let n_arg =
    Arg.(value & opt int 6 & info [ "n" ] ~doc:"Number of qubits of the QFT circuit to check.")
  in
  let approx_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "approx" ] ~docv:"T"
          ~doc:
            "Check the approximate QFT instead: controlled rotations $(b,rk k) with \
             k > $(docv) are dropped (Coppersmith's construction).")
  in
  let run common n approx =
    setup common;
    finish common @@ fun () ->
    (match approx with
    | None -> Printf.printf "Static check: exact QFT on %d qubits\n" n
    | Some t -> Printf.printf "Static check: approximate QFT on %d qubits (threshold %d)\n" n t);
    if n < 1 then begin
      Printf.eprintf "hsp: --n must be >= 1\n";
      2
    end
    else
      match Analysis.Circuit_check.check_qft ?approx_threshold:approx n with
      | Ok r ->
          Format.printf "%a@." Analysis.Circuit_check.pp_report r;
          let budget =
            match approx with
            | None -> Analysis.Circuit_check.qft_exact_gate_count n
            | Some t -> Analysis.Circuit_check.qft_approx_gate_count ~threshold:t n
          in
          Printf.printf "closed-form gate budget: %d\n" budget;
          Printf.printf "verdict        : well-formed\n";
          0
      | Error vs ->
          List.iter (fun v -> Format.printf "%a@." Analysis.Circuit_check.pp_violation v) vs;
          Printf.printf "verdict        : %d violation(s)\n" (List.length vs);
          1
  in
  Cmd.v
    (Cmd.info "check-circuit"
       ~doc:
         "Statically validate the QFT circuit builder: wire ranges, per-gate unitarity, \
          and gate/rotation counts against the closed-form Coppersmith budgets.  No \
          simulation is performed.")
    Term.(const run $ common_arg $ n_arg $ approx_arg)

let order_cmd =
  let modulus_arg = Arg.(value & opt int 77 & info [ "modulus" ] ~doc:"Modulus N.") in
  let base_arg = Arg.(value & opt int 2 & info [ "base" ] ~doc:"Element of Z_N^*.") in
  let run common seed modulus base =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    let queries = Quantum.Query.create () in
    match
      Quantum.Shor.find_order rng
        ~pow:(fun k -> Numtheory.Arith.powmod base k modulus)
        ~order_bound:modulus ~queries
    with
    | Some o ->
        Printf.printf "ord(%d mod %d) = %d  (%d quantum queries)\n" base modulus o
          (Quantum.Query.count queries);
        0
    | None ->
        Printf.printf "did not converge\n";
        1
  in
  Cmd.v
    (Cmd.info "order" ~doc:"Multiplicative order via simulated Shor period finding.")
    Term.(const run $ common_arg $ seed_arg $ modulus_arg $ base_arg)

let () =
  let doc = "Quantum algorithms for non-Abelian hidden subgroup problems (simulated)." in
  let info = Cmd.info "hsp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            simon_cmd; abelian_cmd; dihedral_cmd; heisenberg_cmd; wreath_cmd; semidirect_cmd;
            dicyclic_cmd; frobenius_cmd; factor_cmd; dlog_cmd; order_cmd; check_circuit_cmd;
          ]))
