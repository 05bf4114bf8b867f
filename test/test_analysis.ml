(* Tests for the static-verification layer (lib/analysis): circuit
   well-formedness checking, QFT gate-count closed forms, per-theorem
   cost-claim gates, and the hsp_lint source pass. *)

open Linalg
open Analysis

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Circuit_check: accepting well-formed circuits                      *)
(* ------------------------------------------------------------------ *)

let test_accepts_qft () =
  List.iter
    (fun n ->
      match Circuit_check.check (Quantum.Circuit.qft n) with
      | Ok r ->
          checki "num_qubits" n r.Circuit_check.num_qubits;
          checkb "positive depth" true (r.Circuit_check.depth >= 1);
          checkb "depth <= gates" true (r.Circuit_check.depth <= r.Circuit_check.gates)
      | Error vs ->
          Alcotest.failf "qft %d rejected: %d violations" n (List.length vs))
    [ 1; 2; 3; 4; 5 ]

let test_accepts_inverse_qft () =
  match Circuit_check.check (Quantum.Circuit.inverse (Quantum.Circuit.qft 4)) with
  | Ok r -> checki "same gate count" (Circuit_check.qft_exact_gate_count 4) r.Circuit_check.gates
  | Error _ -> Alcotest.fail "inverse qft rejected"

let test_accepts_phase_estimation_shape () =
  (* the phase-estimation skeleton: Hadamards, a controlled unitary,
     then an inverse QFT on the clock wires *)
  let open Quantum in
  let c = Circuit.empty 3 in
  let c = Circuit.gate c Gates.h [ 0 ] in
  let c = Circuit.gate c Gates.h [ 1 ] in
  let c = Circuit.gate c (Gates.controlled (Gates.rk 2)) [ 0; 2 ] in
  let c = Circuit.seq c (Circuit.inverse (Circuit.qft 3)) in
  match Circuit_check.check c with
  | Ok r -> checkb "has gates" true (r.Circuit_check.gates > 3)
  | Error _ -> Alcotest.fail "phase-estimation circuit rejected"

(* ------------------------------------------------------------------ *)
(* Circuit_check: rejecting crafted fixtures.  [Circuit.gate] now     *)
(* raises on these, so the broken values are built directly.          *)
(* ------------------------------------------------------------------ *)

let non_unitary = Cmat.init 2 2 (fun _ _ -> Cx.one)

let test_rejects_non_unitary () =
  let c = Quantum.Circuit.of_ops 1 [ Quantum.Circuit.Gate (non_unitary, [ 0 ]) ] in
  match Circuit_check.check c with
  | Ok _ -> Alcotest.fail "non-unitary gate accepted"
  | Error vs ->
      checkb "flags gate 0" true (List.exists (fun v -> v.Circuit_check.gate = Some 0) vs);
      checkb "mentions unitary" true
        (List.exists
           (fun v ->
             let what = v.Circuit_check.what in
             (* substring search, 4.14-compatible *)
             let rec has i =
               i + 7 <= String.length what && (String.sub what i 7 = "unitary" || has (i + 1))
             in
             has 0)
           vs)

let test_rejects_duplicate_wires () =
  let c = Quantum.Circuit.of_ops 2 [ Quantum.Circuit.Gate (Cmat.identity 4, [ 0; 0 ]) ] in
  match Circuit_check.check c with
  | Ok _ -> Alcotest.fail "duplicate wires accepted"
  | Error vs -> checkb "flags gate 0" true (List.exists (fun v -> v.Circuit_check.gate = Some 0) vs)

let test_rejects_out_of_range_wire () =
  let c = Quantum.Circuit.of_ops 2 [ Quantum.Circuit.Gate (Cmat.identity 2, [ 5 ]) ] in
  checkb "rejected" true (Result.is_error (Circuit_check.check c))

let test_rejects_dim_mismatch () =
  let c = Quantum.Circuit.of_ops 2 [ Quantum.Circuit.Gate (Cmat.identity 2, [ 0; 1 ]) ] in
  checkb "rejected" true (Result.is_error (Circuit_check.check c))

let test_collects_all_violations () =
  let c =
    Quantum.Circuit.of_ops 1
      [ Quantum.Circuit.Gate (non_unitary, [ 0 ]); Quantum.Circuit.Gate (Cmat.identity 2, [ 3 ]) ]
  in
  match Circuit_check.check c with
  | Ok _ -> Alcotest.fail "accepted"
  | Error vs -> checkb "both gates flagged" true (List.length vs >= 2)

(* ------------------------------------------------------------------ *)
(* Circuit.gate / Circuit.seq argument validation                     *)
(* ------------------------------------------------------------------ *)

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_gate_raises () =
  let open Quantum in
  let c = Circuit.empty 2 in
  checkb "out of range" true (raises_invalid (fun () -> Circuit.gate c Gates.h [ 2 ]));
  checkb "negative wire" true (raises_invalid (fun () -> Circuit.gate c Gates.h [ -1 ]));
  checkb "duplicate" true (raises_invalid (fun () -> Circuit.gate c Gates.swap [ 0; 0 ]));
  checkb "empty wires" true (raises_invalid (fun () -> Circuit.gate c Gates.h []));
  checkb "dim mismatch" true (raises_invalid (fun () -> Circuit.gate c Gates.h [ 0; 1 ]));
  checkb "valid still works" true
    (match Circuit.gate c Gates.swap [ 0; 1 ] with _ -> true)

let test_seq_raises () =
  let open Quantum in
  checkb "arity mismatch" true
    (raises_invalid (fun () -> Circuit.seq (Circuit.empty 2) (Circuit.empty 3)))

(* ------------------------------------------------------------------ *)
(* QFT gate-count closed forms                                        *)
(* ------------------------------------------------------------------ *)

let test_qft_exact_counts () =
  for n = 2 to 8 do
    checki
      (Printf.sprintf "exact formula n=%d" n)
      ((n * (n + 1) / 2) + (n / 2))
      (Circuit_check.qft_exact_gate_count n);
    checki
      (Printf.sprintf "builder matches n=%d" n)
      (Circuit_check.qft_exact_gate_count n)
      (Quantum.Circuit.gate_count (Quantum.Circuit.qft n));
    match Circuit_check.check_qft n with
    | Ok _ -> ()
    | Error _ -> Alcotest.failf "check_qft %d failed" n
  done

let test_qft_approx_counts () =
  List.iter
    (fun (n, t) ->
      checki
        (Printf.sprintf "approx builder n=%d t=%d" n t)
        (Circuit_check.qft_approx_gate_count ~threshold:t n)
        (Quantum.Circuit.gate_count (Quantum.Circuit.qft ~approx_threshold:t n));
      match Circuit_check.check_qft ~approx_threshold:t n with
      | Ok r ->
          (* rotations kept: gaps g = 1 .. min(t-1, n-1), n-g each *)
          let expect = ref 0 in
          for g = 1 to min (t - 1) (n - 1) do
            expect := !expect + (n - g)
          done;
          checki "rotation count" !expect r.Circuit_check.rotations
      | Error _ -> Alcotest.failf "check_qft ~approx %d %d failed" n t)
    [ (4, 2); (5, 3); (6, 2); (7, 4); (8, 3); (8, 20) ]

let test_qft_approx_saturates () =
  (* threshold beyond n reproduces the exact circuit *)
  checki "saturated = exact" (Circuit_check.qft_exact_gate_count 6)
    (Circuit_check.qft_approx_gate_count ~threshold:100 6)

(* ------------------------------------------------------------------ *)
(* Cost_check: claim table and verdicts                               *)
(* ------------------------------------------------------------------ *)

let test_claim_table_labels () =
  List.iter
    (fun l -> checkb ("claim " ^ l) true (Cost_check.find l <> None))
    [ "3"; "4"; "6"; "8"; "11"; "13g"; "13c" ];
  checkb "unknown label" true (Cost_check.find "99" = None)

(* A ledger snapshot whose gate usage (gate_apps + dft_apps) is [g]. *)
let gates_used g = { (Quantum.Metrics.snapshot ()) with gate_apps = g - 1; dft_apps = 1 }

let test_claim_within_budget () =
  let claim = Option.get (Cost_check.find "3") in
  let p = Cost_check.params ~group_order:16 () in
  let v = Cost_check.check_snapshot claim p ~queries:14 (gates_used 48) in
  checkb "ok" true v.Cost_check.ok;
  checkb "cell ok" true (String.equal (Cost_check.cell v) "ok")

let test_claim_violated () =
  let claim = Option.get (Cost_check.find "3") in
  let p = Cost_check.params ~group_order:16 () in
  (* a Theta(|G|)-query regression must trip the poly(log |G|) budget *)
  let v = Cost_check.check_snapshot claim p ~queries:(16 * 16) (gates_used 48) in
  checkb "not ok" false v.Cost_check.ok;
  checkb "cell says OVER" true
    (String.length (Cost_check.cell v) >= 4 && String.sub (Cost_check.cell v) 0 4 = "OVER");
  let v = Cost_check.check_snapshot claim p ~queries:1 (gates_used 1_000_000) in
  checkb "gate overflow also trips" false v.Cost_check.ok

let test_claim_budgets_monotone () =
  (* growing any parameter never shrinks a budget — required for the
     regression-gate reading of the claims *)
  let base = Cost_check.params ~group_order:64 ~quotient_order:2 ~nu:1 () in
  let bigger =
    Cost_check.params ~group_order:4096 ~quotient_order:8 ~commutator_order:5 ~nu:3 ()
  in
  List.iter
    (fun l ->
      let c = Option.get (Cost_check.find l) in
      checkb ("queries monotone " ^ l) true (c.Cost_check.queries bigger >= c.Cost_check.queries base);
      checkb ("gates monotone " ^ l) true (c.Cost_check.gates bigger >= c.Cost_check.gates base))
    [ "3"; "4"; "6"; "8"; "11"; "13g"; "13c" ]

let test_log2_ceil () =
  List.iter
    (fun (n, e) -> checki (Printf.sprintf "log2_ceil %d" n) e (Cost_check.log2_ceil n))
    [ (1, 1); (2, 1); (3, 2); (4, 2); (5, 3); (16, 4); (17, 5); (1024, 10) ]

(* ------------------------------------------------------------------ *)
(* Lint: inline-snippet unit tests                                    *)
(* ------------------------------------------------------------------ *)

let strict = { Lint.check_poly = true; allow_print = false }
let lenient = { Lint.check_poly = false; allow_print = true }

let rules_of cfg src =
  List.map (fun f -> f.Lint.rule) (Lint.lint_source cfg ~file:"snippet.ml" src)

let test_lint_poly_compare () =
  checkb "bare compare" true (List.mem Lint.Poly_compare (rules_of strict "let f a b = compare a b"));
  checkb "Stdlib.compare" true
    (List.mem Lint.Poly_compare (rules_of strict "let f a b = Stdlib.compare a b"));
  checkb "Hashtbl.hash" true
    (List.mem Lint.Poly_compare (rules_of strict "let h x = Hashtbl.hash x"));
  checkb "scoped off" true (rules_of lenient "let f a b = compare a b" = []);
  checkb "module-qualified ok" true
    (rules_of strict "let f a b = Int.compare a b" = [])

let test_lint_array_element () =
  checkb "element vs ident" true
    (List.mem Lint.Poly_compare (rules_of strict "let f tags i t0 = tags.(i) = t0"));
  checkb "ident vs element" true
    (List.mem Lint.Poly_compare (rules_of strict "let f b i d = d <> b.(i)"));
  checkb "element vs element" true
    (List.mem Lint.Poly_compare (rules_of strict "let f a i j = a.(i) = a.(j)"));
  checkb "element vs field" true
    (List.mem Lint.Poly_compare (rules_of strict "let f st c = st.parent.(c) = st.root"));
  checkb "literal operand ok" true (rules_of strict "let f t = t.(1) = 1" = []);
  checkb "compound operand ok" true
    (rules_of strict "let f a i x = a.(i) = (x land 1)" = []);
  checkb "Int.equal ok" true (rules_of strict "let f a i x = Int.equal a.(i) x" = []);
  checkb "scoped off" true (rules_of lenient "let f tags i t0 = tags.(i) = t0" = []);
  checkb "allow comment" true
    (rules_of strict "(* hsp-lint: allow poly-compare *)\nlet f a i x = a.(i) = x" = [])

let test_lint_poly_eq () =
  checkb "eq as value" true
    (List.mem Lint.Poly_eq (rules_of strict "let f xs = List.mem ( = ) xs"));
  checkb "applied int eq ok" true (rules_of strict "let f (a : int) b = a = b" = [])

let test_lint_poly_membership () =
  checkb "List.mem" true
    (List.mem Lint.Poly_membership (rules_of strict "let f k xs = List.mem k xs"));
  checkb "List.assoc" true
    (List.mem Lint.Poly_membership (rules_of strict "let f k xs = List.assoc k xs"));
  checkb "List.mem_assoc" true
    (List.mem Lint.Poly_membership (rules_of strict "let f k xs = List.mem_assoc k xs"));
  checkb "eq section" true
    (List.mem Lint.Poly_membership (rules_of strict "let f k xs = List.exists (( = ) k) xs"));
  checkb "eq lambda" true
    (List.mem Lint.Poly_membership
       (rules_of strict "let f t xs = List.filter (fun x -> g x = t) xs"));
  checkb "eq lambda for_all" true
    (List.mem Lint.Poly_membership
       (rules_of strict "let f y xs = List.for_all (fun x -> x <> y) xs"));
  checkb "literal key ok" true
    (rules_of strict "let f xs = List.mem \"all\" xs" = []);
  checkb "literal-guard lambda ok" true
    (rules_of strict "let f xs = List.exists (fun d -> d <> 2) xs" = []);
  checkb "typed equal ok" true
    (rules_of strict "let f k xs = List.exists (Int.equal k) xs" = []);
  checkb "non-eq predicate ok" true
    (rules_of strict "let f p xs = List.find_opt (fun x -> p x) xs" = []);
  checkb "scoped off" true (rules_of lenient "let f k xs = List.mem k xs" = []);
  checkb "allow comment" true
    (rules_of strict "(* hsp-lint: allow poly-membership *)\nlet f k xs = List.mem k xs" = [])

let test_lint_float_eq () =
  checkb "float literal" true (List.mem Lint.Float_eq (rules_of strict "let f x = x = 1.0"));
  checkb "also when scoped off" true
    (List.mem Lint.Float_eq (rules_of lenient "let f x = 0.5 <> x"));
  checkb "int literal ok" true (rules_of lenient "let f x = x = 1" = [])

let test_lint_obj_magic () =
  checkb "obj magic" true (List.mem Lint.Obj_magic (rules_of lenient "let f x = Obj.magic x"))

let test_lint_print_stdout () =
  checkb "printf" true
    (List.mem Lint.Print_stdout (rules_of strict "let f () = Printf.printf \"x\""));
  checkb "print_endline" true
    (List.mem Lint.Print_stdout (rules_of strict "let f () = print_endline \"x\""));
  checkb "allowed in bin" true (rules_of lenient "let f () = print_endline \"x\"" = []);
  checkb "eprintf ok" true (rules_of strict "let f () = Printf.eprintf \"x\"" = [])

let test_lint_allowlist () =
  checkb "same-line allow" true
    (rules_of strict "let f a b = compare a b (* hsp-lint: allow poly-compare *)" = []);
  checkb "previous-line allow" true
    (rules_of strict "(* hsp-lint: allow poly-compare *)\nlet f a b = compare a b" = []);
  checkb "allow all" true
    (rules_of strict "(* hsp-lint: allow all *)\nlet f a b = compare a b" = []);
  checkb "wrong rule does not suppress" true
    (List.mem Lint.Poly_compare
       (rules_of strict "(* hsp-lint: allow float-eq *)\nlet f a b = compare a b"))

let test_lint_finding_location () =
  match Lint.lint_source strict ~file:"loc.ml" "let a = 1\nlet f a b = compare a b" with
  | [ f ] ->
      checki "line" 2 f.Lint.line;
      Alcotest.(check string) "file" "loc.ml" f.Lint.file;
      Alcotest.(check string) "rule name" "poly-compare" (Lint.rule_name f.Lint.rule)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_lint_config_for_path () =
  let c = Lint.config_for_path "lib/group/perm.ml" in
  checkb "group: poly on" true c.Lint.check_poly;
  checkb "group: print off" false c.Lint.allow_print;
  let c = Lint.config_for_path "lib/core/runner.ml" in
  checkb "core: poly on" true c.Lint.check_poly;
  let c = Lint.config_for_path "lib/linalg/cmat.ml" in
  checkb "linalg: poly on" true c.Lint.check_poly;
  let c = Lint.config_for_path "lib/quantum/backend_dense.ml" in
  checkb "quantum: poly on" true c.Lint.check_poly;
  let c = Lint.config_for_path "lib/numtheory/gf2.ml" in
  checkb "numtheory: poly off" false c.Lint.check_poly;
  let c = Lint.config_for_path "bench/main.ml" in
  checkb "bench: print ok" true c.Lint.allow_print


(* ------------------------------------------------------------------ *)
(* Race_check: inline-snippet unit tests                              *)
(* ------------------------------------------------------------------ *)

let rc_all =
  {
    Race_check.check_parallel = true;
    check_globals = true;
    check_locks = true;
    check_blocking = true;
  }

let rc_lib = { rc_all with Race_check.check_globals = false; check_blocking = false }

let rc_rules_of cfg src =
  List.map (fun f -> f.Race_check.rule) (Race_check.lint_source cfg ~file:"snippet.ml" src)

let test_rc_race_capture () =
  checkb "captured ref" true
    (List.mem Race_check.Race_capture
       (rc_rules_of rc_lib
          "let f n = let acc = ref 0 in Parallel.parallel_for 0 n (fun lo hi -> acc := !acc + hi - lo)"));
  checkb "captured incr" true
    (List.mem Race_check.Race_capture
       (rc_rules_of rc_lib
          "let f n = let hits = ref 0 in Parallel.parallel_for 0 n (fun _ _ -> incr hits)"));
  checkb "captured mutable field" true
    (List.mem Race_check.Race_capture
       (rc_rules_of rc_lib
          "let f t n = Parallel.parallel_for 0 n (fun _ hi -> t.total <- hi)"));
  checkb "closure-local ref ok" true
    (rc_rules_of rc_lib
       "let f n = Parallel.parallel_for 0 n (fun lo hi -> let i = ref lo in while !i < hi do incr i done)"
    = []);
  checkb "let-bound record ok" true
    (rc_rules_of rc_lib
       "let f n = Parallel.parallel_for 0 n (fun lo _ -> let t = make () in t.total <- lo)"
    = []);
  checkb "array slot ok" true
    (rc_rules_of rc_lib "let f out n = Parallel.parallel_for 0 n (fun lo _ -> out.(lo) <- lo)"
    = []);
  checkb "map_chunks checked" true
    (List.mem Race_check.Race_capture
       (rc_rules_of rc_lib
          "let f n = let s = ref 0 in Parallel.map_chunks ~chunks:4 0 n (fun lo _ -> s := lo)"));
  checkb "atomic ok" true
    (rc_rules_of rc_lib
       "let f a n = Parallel.parallel_for 0 n (fun _ _ -> Atomic.incr a)"
    = [])

let test_rc_jobs_dependent_chunks () =
  checkb "Parallel.jobs in ~chunks" true
    (List.mem Race_check.Jobs_dependent_chunks
       (rc_rules_of rc_lib
          "let f n body = Parallel.parallel_for ~chunks:(4 * Parallel.jobs ()) 0 n body"));
  checkb "bare jobs in ~chunks" true
    (List.mem Race_check.Jobs_dependent_chunks
       (rc_rules_of rc_lib "let f n body = Parallel.map_chunks ~chunks:(jobs ()) 0 n body"));
  checkb "HSP_JOBS getenv in ~chunks" true
    (List.mem Race_check.Jobs_dependent_chunks
       (rc_rules_of rc_lib
          "let f n body = Parallel.parallel_for ~chunks:(int_of_string (Sys.getenv \"HSP_JOBS\")) 0 n body"));
  checkb "let-bound jobs-dependent count" true
    (List.mem Race_check.Jobs_dependent_chunks
       (rc_rules_of rc_lib
          "let f total body = let n = if Parallel.jobs () = 1 then 1 else 8 in \
           Parallel.parallel_for ~chunks:n 0 total body"));
  checkb "let chain from jobs" true
    (List.mem Race_check.Jobs_dependent_chunks
       (rc_rules_of rc_lib
          "let f total body = let j = Parallel.jobs () in let c = 2 * j in \
           Parallel.parallel_for ~chunks:c 0 total body"));
  checkb "shadowed by a fixed count ok" true
    (rc_rules_of rc_lib
       "let f total body = let n = Parallel.jobs () in let n = 8 in \
        Parallel.parallel_for ~chunks:n 0 total body"
    = []);
  checkb "let-bound workload count ok" true
    (rc_rules_of rc_lib
       "let f total body = let n = total / 4096 in Parallel.parallel_for ~chunks:n 0 total body"
    = []);
  checkb "workload-fixed chunks ok" true
    (rc_rules_of rc_lib "let f n body = Parallel.parallel_for ~chunks:(n / 4096) 0 n body"
    = []);
  checkb "reduction_chunks ok" true
    (rc_rules_of rc_lib
       "let f n body = Parallel.map_chunks ~chunks:(Parallel.reduction_chunks ~slot_words:2 n) 0 n body"
    = [])

let test_rc_domain_unsafe_global () =
  checkb "top-level ref" true
    (List.mem Race_check.Domain_unsafe_global (rc_rules_of rc_all "let counter = ref 0"));
  checkb "top-level hashtbl" true
    (List.mem Race_check.Domain_unsafe_global
       (rc_rules_of rc_all "let memo : (int, int) Hashtbl.t = Hashtbl.create 8"));
  checkb "atomic ok" true (rc_rules_of rc_all "let counter = Atomic.make 0" = []);
  checkb "lambda body ok" true
    (rc_rules_of rc_all "let fresh () = let t = Hashtbl.create 8 in t" = []);
  checkb "scoped off" true (rc_rules_of rc_lib "let counter = ref 0" = []);
  checkb "allow comment" true
    (rc_rules_of rc_all
       "(* hsp-lint: allow domain-unsafe-global -- guarded by the_lock *)\nlet memo = Hashtbl.create 8"
    = [])

let test_rc_unbalanced_lock () =
  checkb "bare lock/unlock" true
    (List.mem Race_check.Unbalanced_lock
       (rc_rules_of rc_all "let f m x = Mutex.lock m; x.n <- x.n + 1; Mutex.unlock m"));
  checkb "lock without unlock" true
    (List.mem Race_check.Unbalanced_lock (rc_rules_of rc_all "let f m = Mutex.lock m"));
  checkb "Mutex.protect ok" true
    (rc_rules_of rc_all "let f m x = Mutex.protect m (fun () -> x.n <- x.n + 1)" = []);
  checkb "lock + Fun.protect ok" true
    (rc_rules_of rc_all
       "let f m g = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) g"
    = [])

let test_rc_blocking_under_lock () =
  checkb "Unix.read under Mutex.protect" true
    (List.mem Race_check.Blocking_under_lock
       (rc_rules_of rc_all
          "let f m fd buf = Mutex.protect m (fun () -> Unix.read fd buf 0 4)"));
  checkb "sampler prep under locked" true
    (List.mem Race_check.Blocking_under_lock
       (rc_rules_of rc_all
          "let f c oracle = locked c (fun () -> Coset_state.sampler_with_subgroup oracle)"));
  checkb "build outside lock ok" true
    (rc_rules_of rc_all
       "let f m fd buf = let n = Unix.read fd buf 0 4 in Mutex.protect m (fun () -> n)"
    = []);
  checkb "scoped off" true
    (rc_rules_of rc_lib "let f m fd buf = Mutex.protect m (fun () -> Unix.read fd buf 0 4)"
    = [])

let test_rc_config_for_path () =
  let c = Race_check.config_for_path "lib/quantum/parallel.ml" in
  checkb "quantum: globals on" true c.Race_check.check_globals;
  checkb "quantum: blocking off" false c.Race_check.check_blocking;
  let c = Race_check.config_for_path "lib/service/cache.ml" in
  checkb "service: globals on" true c.Race_check.check_globals;
  checkb "service: blocking on" true c.Race_check.check_blocking;
  let c = Race_check.config_for_path "lib/group/perm.ml" in
  checkb "group: globals off" false c.Race_check.check_globals;
  checkb "group: locks on" true c.Race_check.check_locks


(* ------------------------------------------------------------------ *)
(* Unused_export: the rule's core on synthetic typed trees            *)
(* ------------------------------------------------------------------ *)

(* Sources are typed in-process against a stand-in for the wrapped
   library [numtheory], whose [Zmatrix] exports [hnf_sample] and [snf]. *)
let typed src =
  Compmisc.init_path ();
  let str, _, _, _, _ =
    Typemod.type_structure (Compmisc.initial_env ())
      (Parse.implementation (Lexing.from_string src))
  in
  str

let numtheory =
  "module Numtheory = struct module Zmatrix = struct let hnf_sample x = x let snf x = x end \
   end\n"

let zm_mli = "val hnf_sample : int -> int\n\nval snf : int -> int\n"

let zm_exports =
  List.map
    (fun (name, line) ->
      let file = "lib/numtheory/zmatrix.mli" in
      { Unused_export.lib = "Numtheory"; unit = "Zmatrix"; name; file; line })
    [ ("hnf_sample", 1); ("snf", 3) ]

let ue_findings ?(mli = zm_mli) units =
  let refs =
    List.concat_map
      (fun (src, code) ->
        List.map
          (fun path -> { Unused_export.src; path })
          (Unused_export.refs_of_structure (typed (numtheory ^ code))))
      units
  in
  Unused_export.findings ~exports:zm_exports ~refs ~mli_source:(fun _ -> mli)

let unused ?mli units =
  List.map (fun (f : Unused_export.finding) -> f.export.name) (ue_findings ?mli units)

let check_unused name expected units =
  Alcotest.(check (list string)) name expected (unused units)

let test_ue_alias () =
  check_unused "module alias" [ "snf" ]
    [ ("lib/quantum/backend_symbolic.ml", "module Zm = Numtheory.Zmatrix\nlet f = Zm.hnf_sample") ];
  check_unused "alias of an alias" [ "hnf_sample" ]
    [ ("bin/cli.ml", "module N = Numtheory\nmodule Zm = N.Zmatrix\nlet f = Zm.snf") ];
  check_unused "let module" [ "hnf_sample" ]
    [ ("bench/main.ml", "let f x = let module Z = Numtheory.Zmatrix in Z.snf x") ]

let test_ue_open () =
  check_unused "open" [ "hnf_sample" ]
    [ ("examples/ex.ml", "open Numtheory\nlet f = Zmatrix.snf") ];
  check_unused "local open" [ "snf" ]
    [ ("lib/core/x.ml", "let f x = Numtheory.Zmatrix.(hnf_sample x)") ]

let test_ue_self_and_test_refs () =
  check_unused "self-reference" [ "hnf_sample"; "snf" ]
    [ ("lib/numtheory/zmatrix.ml", "let g = Numtheory.Zmatrix.snf") ];
  check_unused "test-only reference" [ "hnf_sample"; "snf" ]
    [
      ( "test/test_numtheory.ml",
        "let g = Numtheory.Zmatrix.snf\nlet h = Numtheory.Zmatrix.hnf_sample" );
    ];
  check_unused "sibling unit in the same library" [ "hnf_sample" ]
    [ ("lib/numtheory/arith.ml", "let g = Numtheory.Zmatrix.snf") ]

let test_ue_mangled_names () =
  check_unused "library unit name" [ "hnf_sample" ]
    [
      ( "lib/quantum/qft.ml",
        "module Numtheory__Zmatrix = struct let snf x = x end\nlet f = Numtheory__Zmatrix.snf" );
    ];
  let paths =
    Unused_export.refs_of_structure
      (typed
         "module Dune__exe__Hsp_cli = struct let main () = () end\n\
          let () = Dune__exe__Hsp_cli.main ()")
  in
  checkb "executable unit name" true (List.mem [ "Hsp_cli"; "main" ] paths)

let allow_ue = "(* hsp-lint: allow unused-export *)"

(* A test references both exports, so an allowlisted one is not stale. *)
let tested =
  [ ("test/test_numtheory.ml", "let g = Numtheory.Zmatrix.snf\nlet h = Numtheory.Zmatrix.hnf_sample") ]

let test_ue_allowlist () =
  (* zm_exports puts hnf_sample on line 1 and snf on line 3 *)
  Alcotest.(check (list string)) "line L" [ "snf" ]
    (unused ~mli:("val hnf_sample : int -> int " ^ allow_ue ^ "\n\nval snf : int -> int\n") tested);
  Alcotest.(check (list string)) "line L-1, and not line L+1" [ "hnf_sample" ]
    (unused ~mli:("val hnf_sample : int -> int\n" ^ allow_ue ^ "\nval snf : int -> int\n") tested);
  Alcotest.(check (list string)) "another rule does not suppress" [ "hnf_sample"; "snf" ]
    (unused ~mli:("(* hsp-lint: allow poly-eq *)\n" ^ zm_mli) tested)

(* An allowlisted val stays quiet while some other unit, a test
   included, references it; with no such reference the entry is stale
   and a finding of its own. *)
let test_ue_stale_allowlist () =
  let mli = "val hnf_sample : int -> int " ^ allow_ue ^ "\n\nval snf : int -> int " ^ allow_ue ^ "\n" in
  Alcotest.(check (list string)) "test/ reference keeps the entry quiet" [] (unused ~mli tested);
  let found =
    ue_findings ~mli
      [
        ("test/test_numtheory.ml", "let g = Numtheory.Zmatrix.snf");
        ("lib/numtheory/zmatrix.ml", "let h = Numtheory.Zmatrix.hnf_sample");
      ]
  in
  Alcotest.(check (list string)) "no reference but its own unit's: a finding" [ "hnf_sample" ]
    (List.map (fun (f : Unused_export.finding) -> f.export.name) found);
  checkb "reported as a stale entry" true
    (List.for_all (fun (f : Unused_export.finding) -> f.allowlisted) found)

let () =
  Alcotest.run "analysis"
    [
      ( "circuit_check",
        [
          Alcotest.test_case "accepts qft" `Quick test_accepts_qft;
          Alcotest.test_case "accepts inverse qft" `Quick test_accepts_inverse_qft;
          Alcotest.test_case "accepts phase estimation" `Quick test_accepts_phase_estimation_shape;
          Alcotest.test_case "rejects non-unitary" `Quick test_rejects_non_unitary;
          Alcotest.test_case "rejects duplicate wires" `Quick test_rejects_duplicate_wires;
          Alcotest.test_case "rejects out-of-range wire" `Quick test_rejects_out_of_range_wire;
          Alcotest.test_case "rejects dim mismatch" `Quick test_rejects_dim_mismatch;
          Alcotest.test_case "collects all violations" `Quick test_collects_all_violations;
        ] );
      ( "circuit_validation",
        [
          Alcotest.test_case "gate raises" `Quick test_gate_raises;
          Alcotest.test_case "seq raises" `Quick test_seq_raises;
        ] );
      ( "qft_counts",
        [
          Alcotest.test_case "exact formulas n=2..8" `Quick test_qft_exact_counts;
          Alcotest.test_case "approx formulas" `Quick test_qft_approx_counts;
          Alcotest.test_case "approx saturates" `Quick test_qft_approx_saturates;
        ] );
      ( "cost_check",
        [
          Alcotest.test_case "table labels" `Quick test_claim_table_labels;
          Alcotest.test_case "within budget" `Quick test_claim_within_budget;
          Alcotest.test_case "violated" `Quick test_claim_violated;
          Alcotest.test_case "budgets monotone" `Quick test_claim_budgets_monotone;
          Alcotest.test_case "log2_ceil" `Quick test_log2_ceil;
        ] );
      ( "lint",
        [
          Alcotest.test_case "poly-compare" `Quick test_lint_poly_compare;
          Alcotest.test_case "array element" `Quick test_lint_array_element;
          Alcotest.test_case "poly-eq" `Quick test_lint_poly_eq;
          Alcotest.test_case "poly-membership" `Quick test_lint_poly_membership;
          Alcotest.test_case "float-eq" `Quick test_lint_float_eq;
          Alcotest.test_case "obj-magic" `Quick test_lint_obj_magic;
          Alcotest.test_case "print-stdout" `Quick test_lint_print_stdout;
          Alcotest.test_case "allowlist" `Quick test_lint_allowlist;
          Alcotest.test_case "finding location" `Quick test_lint_finding_location;
          Alcotest.test_case "config for path" `Quick test_lint_config_for_path;
        ] );
      ( "race_check",
        [
          Alcotest.test_case "race-capture" `Quick test_rc_race_capture;
          Alcotest.test_case "jobs-dependent-chunks" `Quick test_rc_jobs_dependent_chunks;
          Alcotest.test_case "domain-unsafe-global" `Quick test_rc_domain_unsafe_global;
          Alcotest.test_case "unbalanced-lock" `Quick test_rc_unbalanced_lock;
          Alcotest.test_case "blocking-under-lock" `Quick test_rc_blocking_under_lock;
          Alcotest.test_case "config for path" `Quick test_rc_config_for_path;
        ] );
      ( "unused_export",
        [
          Alcotest.test_case "module alias" `Quick test_ue_alias;
          Alcotest.test_case "open" `Quick test_ue_open;
          Alcotest.test_case "self and test references" `Quick test_ue_self_and_test_refs;
          Alcotest.test_case "mangled unit names" `Quick test_ue_mangled_names;
          Alcotest.test_case "allowlist" `Quick test_ue_allowlist;
          Alcotest.test_case "stale allowlist entry" `Quick test_ue_stale_allowlist;
        ] );
    ]
