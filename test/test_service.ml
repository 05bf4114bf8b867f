(* Service-layer coverage: the overflow/accounting bugfixes in
   Coset_state, the LRU artifact cache, fingerprinting, batching
   against one cached prep, per-request error containment over a real
   socket, and batched-vs-sequential distribution equality.

   The uncapped-sampler regressions (Z_2^200 construction, beyond-cap
   end-to-end rounds, sample_full's classical_evals accounting, the
   state-valued sampler's hashed memo) live here too: the service
   daemon is exactly the caller those paths must not crash under. *)

open Quantum
open Hsp_service

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let setup () =
  Metrics.reset ();
  Backend.set_default None

let rng () = Random.State.make [| 42 |]

(* ------------------------------------------------------------------ *)
(* Bugfix: the planted-subgroup sampler at Z_2^200 (no int total)     *)
(* ------------------------------------------------------------------ *)

(* Constructing an uncapped sampler must never form the register's
   total dimension, which overflows an int on a 200-wire binary
   register. *)
let test_planted_z2_200_constructs () =
  setup ();
  let dims = Array.make 200 2 in
  List.iter
    (fun backend ->
      let queries = Query.create () in
      let sampler = Coset_state.sampler_with_subgroup ~backend ~dims ~subgroup:[] ~queries () in
      ignore (sampler : Random.State.t -> int array);
      checki "no queries charged at construction" 0 (Query.count queries))
    [ Backend.Sparse; Backend.Symbolic ]

(* End-to-end rounds at a formable total beyond the sparse coset cap
   (2^28 > 2^26): H = Z_2^14 x {0}^14, a balanced split so both the
   coset (|H| = 2^14 members) and its Fourier support (the dual,
   |G|/|H| = 2^14) stay far below the cap.  Outcomes must annihilate H
   (zero on the free coordinates). *)
let test_planted_beyond_cap_rounds () =
  setup ();
  let st = rng () in
  let n_wires = 28 and free = 14 in
  let dims = Array.make n_wires 2 in
  let subgroup = List.init free (fun i -> Array.init n_wires (fun j -> if i = j then 1 else 0)) in
  let queries = Query.create () in
  let sampler = Coset_state.sampler_with_subgroup ~backend:Backend.Sparse ~dims ~subgroup ~queries () in
  for _ = 1 to 3 do
    let y = sampler st in
    for i = 0 to free - 1 do
      checki "character trivial on H's free coordinates" 0 y.(i)
    done
  done;
  checki "one query per round" 3 (Query.count queries)

(* ------------------------------------------------------------------ *)
(* Bugfix: sample_full's classical canonicalisation accounting         *)
(* ------------------------------------------------------------------ *)

let test_sample_full_classical_evals () =
  setup ();
  let st = rng () in
  let dims = [| 4; 4 |] in
  let queries = Query.create () in
  let y = Coset_state.sample_full st ~dims ~f:(fun x -> x.(0) mod 2) ~queries () in
  let s = Metrics.snapshot () in
  checki "one quantum query" 1 (Query.count queries);
  checki "16 classical oracle evals recorded" 16 s.Metrics.classical_evals;
  (* H = 2Z_4 x Z_4; outcomes satisfy 2*y0 = 0 mod 4 and y1 = 0 *)
  checki "y0 annihilates 2Z_4" 0 (2 * y.(0) mod 4);
  checki "y1 annihilates Z_4" 0 y.(1)

(* ------------------------------------------------------------------ *)
(* Bugfix: state-valued sampler with many cosets                       *)
(* ------------------------------------------------------------------ *)

(* 32 cosets (H = 32Z_64 hidden in Z_64, f maps x to basis vector
   e_{x mod 32}): the old representative list made every evaluation an
   O(#cosets) approx-equal scan; the hashed memo must still tag the
   cosets correctly, i.e. all outcomes annihilate H. *)
let test_state_valued_many_cosets () =
  setup ();
  let st = rng () in
  let d = 64 and m = 32 in
  let dims = [| d |] in
  let f x =
    let v = Linalg.Cvec.make m in
    v.(x.(0) mod m) <- Linalg.Cx.one;
    v
  in
  let queries = Query.create () in
  let sampler = Coset_state.sampler_state_valued ~dims ~f ~queries () in
  let samples = List.init 40 (fun _ -> sampler st) in
  List.iter
    (fun y -> checki "outcome annihilates H = 32Z_64" 0 (m * y.(0) mod d))
    samples;
  (* the annihilator of the samples is exactly H *)
  let gens = Coset_state.annihilator_subgroup ~dims samples in
  let sub = Backend_symbolic.Subgroup.of_gens ~dims gens in
  let truth = Backend_symbolic.Subgroup.of_gens ~dims [ [| m |] ] in
  checkb "recovered subgroup equals 32Z_64" true
    (Backend_symbolic.Subgroup.equal sub truth);
  checki "one prep for the whole run" 1 (Metrics.snapshot ()).Metrics.sampler_preps

(* ------------------------------------------------------------------ *)
(* Cache: hit/miss/eviction, LRU order, byte budget                    *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss_eviction () =
  let c = Cache.create ~max_entries:2 ~max_bytes:max_int ~bytes_of:String.length () in
  Cache.add c 1 "one";
  Cache.add c 2 "two";
  checkb "hit 1" true (Cache.find c 1 = Some "one");
  (* 2 is now LRU; adding 3 must evict it *)
  Cache.add c 3 "three";
  checkb "2 evicted" true (Cache.find c 2 = None);
  checkb "1 survives (recently used)" true (Cache.find c 1 = Some "one");
  let s = Cache.stats c in
  checki "entries" 2 s.Cache.entries;
  checki "evictions" 1 s.Cache.evictions;
  checki "hits" 2 s.Cache.hits;
  checki "misses" 1 s.Cache.misses

let test_cache_byte_budget () =
  let c = Cache.create ~max_entries:100 ~max_bytes:10 ~bytes_of:String.length () in
  Cache.add c "a" "xxxx";
  Cache.add c "b" "xxxx";
  Cache.add c "c" "xxxx";
  (* 12 bytes > 10: LRU "a" must go *)
  let s = Cache.stats c in
  checki "bytes after eviction" 8 s.Cache.bytes;
  checkb "a evicted" false (Cache.mem c "a");
  checkb "b kept" true (Cache.mem c "b");
  (* one oversized entry is still admitted alone *)
  let c2 = Cache.create ~max_entries:4 ~max_bytes:3 ~bytes_of:String.length () in
  Cache.add c2 "big" "xxxxxxxx";
  checkb "oversized entry admitted" true (Cache.mem c2 "big")

let test_cache_find_or_add () =
  let c = Cache.create ~max_entries:4 ~max_bytes:max_int ~bytes_of:(fun _ -> 1) () in
  let builds = ref 0 in
  let build () = incr builds; "v" in
  let v1, hit1 = Cache.find_or_add c 7 build in
  let v2, hit2 = Cache.find_or_add c 7 build in
  checkb "first is a miss" false hit1;
  checkb "second is a hit" true hit2;
  checkb "same value" true (String.equal v1 v2);
  checki "built once" 1 !builds

(* ------------------------------------------------------------------ *)
(* Fingerprints: distinct instances never collide                      *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_distinct () =
  let inst dims moduli backend : Protocol.instance = { dims; moduli; backend } in
  let cases =
    [
      inst [| 8; 8 |] [| 4; 2 |] None;
      inst [| 8; 8 |] [| 2; 4 |] None;
      inst [| 8; 8 |] [| 8; 8 |] None;
      inst [| 64 |] [| 8 |] None;
      (* csv ambiguity probes: [2,2] vs [22], [2,21] vs [22,1] *)
      inst [| 2; 2 |] [| 2; 2 |] None;
      inst [| 22 |] [| 22 |] None;
      inst [| 2; 21 |] [| 1; 1 |] None;
      inst [| 22; 1 |] [| 1; 1 |] None;
    ]
  in
  let keys =
    List.map
      (fun i ->
        match Service.route i with
        | Ok rt -> Service.fingerprint i rt
        | Error msg -> Alcotest.failf "route failed: %s" msg)
      cases
  in
  let distinct = List.sort_uniq String.compare keys in
  checki "all fingerprints distinct" (List.length cases) (List.length distinct);
  (* same instance on different routes is a different artifact *)
  let i = inst [| 8; 8 |] [| 4; 2 |] None in
  checkb "route is part of the key" false
    (String.equal
       (Service.fingerprint i (Service.Amp Backend.Dense))
       (Service.fingerprint i Service.Sym))

(* With the backend omitted, the amplitude route takes the oracle
   route's own rule (Coset_state.oracle_backend): a 2^23 group, under
   the dense state cap but over the dense sampler's, routes sparse
   rather than to a dense prep that rejects it, and shares the
   explicit-sparse request's artifact. *)
let test_route_omitted_backend () =
  setup ();
  let inst backend : Protocol.instance = { dims = [| 4096; 2048 |]; moduli = [| 64; 32 |]; backend } in
  let route_of i =
    match Service.route i with Ok rt -> rt | Error msg -> Alcotest.failf "route failed: %s" msg
  in
  let omitted = route_of (inst None) and sparse = route_of (inst (Some Backend.Sparse)) in
  checkb "omitted backend routes Amp Sparse" true (omitted = Service.Amp Backend.Sparse);
  Alcotest.(check string)
    "same artifact as the explicit-sparse request"
    (Service.fingerprint (inst (Some Backend.Sparse)) sparse)
    (Service.fingerprint (inst None) omitted)

(* ------------------------------------------------------------------ *)
(* Engine: batching, sampler_preps = 1 per oracle, ledger deltas       *)
(* ------------------------------------------------------------------ *)

let sample_req ?seed ?(count = 8) dims moduli backend : Protocol.envelope =
  {
    Protocol.id = Jsonv.Null;
    req = Protocol.Sample { inst = { dims; moduli; backend }; count; seed };
  }

let reply_int path reply =
  let rec go v = function
    | [] -> Jsonv.to_int_opt v
    | k :: rest -> Option.bind (Jsonv.member k v) (fun v' -> go v' rest)
  in
  go reply path

let reply_ok reply = Jsonv.member "ok" reply = Some (Jsonv.Bool true)

let test_batched_requests_share_one_prep () =
  setup ();
  let t = Service.create ~seed:1 () in
  (* stage the batch BEFORE starting the executor: all 8 jobs are
     queued, then drained in one sweep and grouped by fingerprint *)
  let replies = Array.make 8 Jsonv.Null in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            replies.(i) <- Service.submit t (sample_req ~seed:i [| 8; 8 |] [| 4; 2 |] None))
          ())
  in
  let rec wait_staged n = if Service.pending t < n then (Thread.delay 0.005; wait_staged n) in
  wait_staged 8;
  Service.start t;
  List.iter Thread.join threads;
  Array.iter (fun r -> checkb "batched sample ok" true (reply_ok r)) replies;
  Array.iter
    (fun r -> checki "whole batch in one group" 8 (Option.get (reply_int [ "batched" ] r)))
    replies;
  checki "one prep for 8 requests on one oracle" 1
    (Metrics.snapshot ()).Metrics.sampler_preps;
  (* a second oracle adds exactly one more prep *)
  let r2 = Service.submit t (sample_req [| 16 |] [| 4 |] None) in
  checkb "second oracle ok" true (reply_ok r2);
  checki "preps = distinct oracles" 2 (Metrics.snapshot ()).Metrics.sampler_preps;
  Service.stop t

let test_per_request_metrics_delta () =
  setup ();
  let t = Service.create ~seed:3 () in
  Service.start t;
  let r = Service.submit t (sample_req ~count:5 [| 8; 8 |] [| 4; 2 |] None) in
  checkb "sample ok" true (reply_ok r);
  checki "five outcomes" 5
    (match Jsonv.member "outcomes" r with
    | Some (Jsonv.List l) -> List.length l
    | _ -> -1);
  checki "five quantum queries" 5 (Option.get (reply_int [ "quantum_queries" ] r));
  (* the delta charges this request's measurements to it, and the cold
     group's prep to the request that triggered it *)
  checki "five measurements in the request's ledger slice" 5
    (Option.get (reply_int [ "metrics"; "measurements" ] r));
  checki "cold request charges its prep" 1
    (Option.value ~default:0 (reply_int [ "metrics"; "sampler_preps" ] r));
  (* warm second request: no further prep in its delta, and a zero
     field is omitted rather than sent *)
  let r2 = Service.submit t (sample_req ~count:3 [| 8; 8 |] [| 4; 2 |] None) in
  checkb "warm request charges zero preps (field absent)" true
    (Option.bind (Jsonv.member "metrics" r2) (Jsonv.member "sampler_preps") = None);
  (* no reply of any kind carries a zero field *)
  let solve =
    Service.submit t
      { Protocol.id = Jsonv.Int 1;
        req = Protocol.Solve { inst = { dims = [| 8; 8 |]; moduli = [| 4; 2 |]; backend = None }; seed = Some 2 } }
  in
  let sym = Service.submit t (sample_req ~count:2 (Array.make 64 2) (Array.make 64 2) None) in
  List.iter
    (fun (name, reply) ->
      checkb (name ^ " ok") true (reply_ok reply);
      match Jsonv.member "metrics" reply with
      | Some (Jsonv.Obj fields) ->
          List.iter
            (fun (k, v) ->
              let zero =
                match v with
                | Jsonv.Int 0 -> true
                | Jsonv.Float f -> Float.equal f 0.0
                | _ -> false
              in
              if zero then Alcotest.failf "%s reply carries zero field %s" name k)
            fields
      | _ -> Alcotest.failf "%s reply has no metrics object" name)
    [ ("cold sample", r); ("warm sample", r2); ("solve", solve); ("symbolic sample", sym) ];
  Service.stop t

let test_solve_and_errors_typed () =
  setup ();
  let t = Service.create ~seed:4 () in
  Service.start t;
  (* solve at 2^120: symbolic route, closed-form verification *)
  let dims = Array.make 120 2 in
  let moduli = Array.init 120 (fun i -> if i < 60 then 2 else 1) in
  let r =
    Service.submit t
      { Protocol.id = Jsonv.Int 9; req = Protocol.Solve { inst = { dims; moduli; backend = None }; seed = Some 5 } }
  in
  checkb "2^120 solve ok" true (reply_ok r);
  checkb "verified against planted subgroup" true
    (Jsonv.member "verified" r = Some (Jsonv.Bool true));
  checkb "id echoed" true (Jsonv.member "id" r = Some (Jsonv.Int 9));
  (* invalid instance: m does not divide d -> rejected, not a crash *)
  let bad = Service.submit t (sample_req [| 8 |] [| 3 |] None) in
  checkb "rejected reply" true
    (match Jsonv.member "error" bad with
    | Some err -> Jsonv.member "kind" err = Some (Jsonv.String "rejected")
    | None -> false);
  (* explicit dense backend on an unformable register -> rejected *)
  let bad2 = Service.submit t (sample_req (Array.make 200 2) (Array.make 200 1) (Some Backend.Dense)) in
  checkb "dense at 2^200 rejected" true
    (match Jsonv.member "error" bad2 with
    | Some err -> Jsonv.member "kind" err = Some (Jsonv.String "rejected")
    | None -> false);
  (* one factor past the wire bound -> rejected before any r x r work *)
  let r = Hsp.Instances.max_wires + 1 in
  let bad3 = Service.submit t (sample_req (Array.make r 2) (Array.make r 1) None) in
  checkb "past the wire bound rejected" true
    (match Jsonv.member "error" bad3 with
    | Some err ->
        Jsonv.member "kind" err = Some (Jsonv.String "rejected")
        && Jsonv.member "message" err
           = Some (Jsonv.String "more than 1024 cyclic factors (the wire bound)")
    | None -> false);
  Service.stop t

(* A cyclic factor past 2^30 routes symbolic and solves; the daemon
   used to answer it with a raw "rejected: Random.int". *)
let test_large_cyclic_factor_solves () =
  setup ();
  let t = Service.create ~seed:5 () in
  Service.start t;
  let r =
    Service.submit t
      { Protocol.id = Jsonv.Int 3;
        req =
          Protocol.Solve
            { inst = { dims = [| 1073741827; 4 |]; moduli = [| 1; 2 |]; backend = None }; seed = Some 1 } }
  in
  checkb "solve ok" true (reply_ok r);
  checkb "verified against planted subgroup" true (Jsonv.member "verified" r = Some (Jsonv.Bool true));
  let s = Service.submit t (sample_req ~count:4 [| 1073741827; 4 |] [| 1; 2 |] None) in
  checkb "sample ok" true (reply_ok s);
  Service.stop t

(* ------------------------------------------------------------------ *)
(* Batched vs sequential: same distribution (chi-squared, as in E13)   *)
(* ------------------------------------------------------------------ *)

let chi2_two_sample tally_a tally_b =
  let keys = Hashtbl.create 64 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) tally_a;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) tally_b;
  let stat = ref 0.0 and cells = ref 0 in
  Hashtbl.iter
    (fun k () ->
      incr cells;
      let a = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tally_a k)) in
      let b = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tally_b k)) in
      stat := !stat +. (((a -. b) ** 2.0) /. (a +. b)))
    keys;
  (!stat, !cells)

let test_batched_vs_sequential_distribution () =
  setup ();
  let dims = [| 8; 8 |] and moduli = [| 4; 2 |] in
  let per_thread = 600 and n_threads = 5 in
  (* batched: concurrent engine requests against one cached prep *)
  let t = Service.create ~seed:11 () in
  let replies = Array.make n_threads Jsonv.Null in
  let threads =
    List.init n_threads (fun i ->
        Thread.create
          (fun () ->
            replies.(i) <-
              Service.submit t (sample_req ~count:per_thread dims moduli None))
          ())
  in
  let rec wait_staged n = if Service.pending t < n then (Thread.delay 0.005; wait_staged n) in
  wait_staged n_threads;
  Service.start t;
  List.iter Thread.join threads;
  Service.stop t;
  let batched = Hashtbl.create 64 in
  Array.iter
    (fun r ->
      checkb "batched request ok" true (reply_ok r);
      match Jsonv.member "outcomes" r with
      | Some (Jsonv.List l) ->
          List.iter
            (fun o ->
              match o with
              | Jsonv.List [ Jsonv.Int a; Jsonv.Int b ] ->
                  let k = (a * 8) + b in
                  Hashtbl.replace batched k
                    (1 + Option.value ~default:0 (Hashtbl.find_opt batched k))
              | _ -> Alcotest.fail "bad outcome shape")
            l
      | _ -> Alcotest.fail "no outcomes")
    replies;
  (* sequential: the library sampler drawing the same number directly *)
  let st = rng () in
  let queries = Query.create () in
  let f x = Backend.encode moduli [| x.(0) mod 4; x.(1) mod 2 |] in
  let draw = Coset_state.sampler ~dims ~f ~queries () in
  let sequential = Hashtbl.create 64 in
  for _ = 1 to per_thread * n_threads do
    let y = draw st in
    let k = (y.(0) * 8) + y.(1) in
    Hashtbl.replace sequential k
      (1 + Option.value ~default:0 (Hashtbl.find_opt sequential k))
  done;
  checki "same outcome support" (Hashtbl.length sequential) (Hashtbl.length batched);
  let stat, cells = chi2_two_sample batched sequential in
  let df = float_of_int (max 1 (cells - 1)) in
  let threshold = df +. (6.0 *. sqrt (2.0 *. df)) +. 10.0 in
  if stat > threshold then
    Alcotest.failf "chi2 %.1f over %d cells exceeds %.1f" stat cells threshold

(* ------------------------------------------------------------------ *)
(* Stress: 8 threads under the adversarial scheduler                   *)
(* ------------------------------------------------------------------ *)

(* The Shuffle scheduler permutes chunk execution inside every parallel
   region while the request threads race the executor and the cache —
   the combination the concurrency-safety rules (Analysis.Race_check)
   exist to protect.  The exact-sum ledger assertion is the sharp one:
   a single double-count or lost tick anywhere breaks it. *)

let with_shuffle f =
  let saved = Parallel.sched () in
  Parallel.set_sched Parallel.Shuffle;
  Fun.protect ~finally:(fun () -> Parallel.set_sched saved) f

let stress_instances =
  [| ([| 8; 8 |], [| 4; 2 |]); ([| 16 |], [| 4 |]); ([| 4; 4 |], [| 2; 2 |]) |]

let service_stress_prop seed =
  with_shuffle @@ fun () ->
  setup ();
  let t = Service.create ~seed:(seed + 1) () in
  Service.start t;
  let n_threads = 8 and per_thread = 6 and count = 4 in
  let replies = Array.make_matrix n_threads per_thread Jsonv.Null in
  let threads =
    List.init n_threads (fun i ->
        Thread.create
          (fun () ->
            let rng = Random.State.make [| seed; i; 0x57e5 |] in
            for k = 0 to per_thread - 1 do
              let dims, moduli =
                stress_instances.(Random.State.int rng (Array.length stress_instances))
              in
              replies.(i).(k) <-
                Service.submit t
                  (sample_req ~seed:(Random.State.int rng 1000) ~count dims moduli None)
            done)
          ())
  in
  List.iter Thread.join threads;
  Service.stop t;
  let global = Metrics.snapshot () in
  let sum_meas = ref 0 and sum_preps = ref 0 and sum_queries = ref 0 and all_ok = ref true in
  let field path r = Option.value ~default:0 (reply_int path r) in
  Array.iter
    (Array.iter (fun r ->
         if not (reply_ok r) then all_ok := false;
         sum_meas := !sum_meas + field [ "metrics"; "measurements" ] r;
         sum_preps := !sum_preps + field [ "metrics"; "sampler_preps" ] r;
         sum_queries := !sum_queries + field [ "quantum_queries" ] r))
    replies;
  !all_ok
  && !sum_queries = n_threads * per_thread * count
  (* per-request ledger deltas partition the global ledger: they must
     sum to it exactly, not approximately *)
  && !sum_meas = global.Metrics.measurements
  && !sum_preps = global.Metrics.sampler_preps
  (* the artifact cache held: preps = distinct oracles, not requests *)
  && global.Metrics.sampler_preps <= Array.length stress_instances
  && global.Metrics.sampler_preps >= 1

let cache_stress_prop seed =
  with_shuffle @@ fun () ->
  let max_entries = 8 and max_bytes = 64 in
  let c = Cache.create ~max_entries ~max_bytes ~bytes_of:String.length () in
  let budget_violations = Atomic.make 0 in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            let rng = Random.State.make [| seed; i; 0xcace |] in
            for _ = 1 to 200 do
              let key = Random.State.int rng 32 in
              let len = 1 + Random.State.int rng 16 in
              ignore (Cache.find_or_add c key (fun () -> String.make len 'x'));
              let s = Cache.stats c in
              if s.Cache.entries > max_entries || s.Cache.bytes > max_bytes then
                Atomic.incr budget_violations
            done)
          ())
  in
  List.iter Thread.join threads;
  let s = Cache.stats c in
  Atomic.get budget_violations = 0
  && s.Cache.entries <= max_entries
  && s.Cache.bytes <= max_bytes
  && s.Cache.hits + s.Cache.misses >= 8 * 200

let stress_props =
  let open QCheck in
  [
    Test.make ~count:3 ~name:"8-thread executor under shuffle: ledger deltas sum exactly"
      (int_bound 1000) service_stress_prop;
    Test.make ~count:3 ~name:"8-thread cache under shuffle: LRU budgets never exceeded"
      (int_bound 1000) cache_stress_prop;
  ]

(* ------------------------------------------------------------------ *)
(* Wire protocol: parsing, framing, socket error containment           *)
(* ------------------------------------------------------------------ *)

let test_protocol_parsing () =
  (match Protocol.parse_request {|{"op":"sample","dims":["2^3",5],"moduli":[2,2,2,5],"count":2}|} with
  | Ok { req = Protocol.Sample { inst; count; _ }; _ } ->
      checkb "b^k expansion" true (inst.Protocol.dims = [| 2; 2; 2; 5 |]);
      checki "count" 2 count
  | Ok _ -> Alcotest.fail "parsed as wrong op"
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  List.iter
    (fun (entry, want) ->
      match Protocol.parse_request (Printf.sprintf {|{"op":"sample","dims":[%S]}|} entry) with
      | Error msg -> Alcotest.(check string) (entry ^ " rejected") want msg
      | Ok _ -> Alcotest.failf "dims entry %S must not parse" entry)
    [ ("2^100001", "repeat count out of range"); ("x^2", {|bad dimension entry "x^2"|}) ];
  (* The field is bounded as a whole: entries each within the repeat
     range stop the expansion once they pass the wire bound. *)
  List.iter
    (fun (what, entries) ->
      let json =
        Printf.sprintf {|{"op":"sample","dims":[%s]}|}
          (String.concat "," (List.map (Printf.sprintf "%S") entries))
      in
      match Protocol.parse_request json with
      | Error msg ->
          Alcotest.(check string) what "more than 1024 cyclic factors (the wire bound)" msg
      | Ok _ -> Alcotest.failf "%s must not parse" what)
    [
      ("twenty 1^100000 entries", List.init 20 (fun _ -> "1^100000"));
      ("2^1000 then 2^25", [ "2^1000"; "2^25" ]);
    ];
  (match Protocol.parse_request {|{"op":"sample","dims":["2^1000","2^24"]}|} with
  | Ok { req = Protocol.Sample { inst; _ }; _ } ->
      checki "a field at the bound parses" Hsp.Instances.max_wires (Array.length inst.Protocol.dims)
  | _ -> Alcotest.fail "a field at the wire bound must parse");
  let at r = Hsp.Instances.quotient_violation ~dims:(Array.make r 2) ~moduli:(Array.make r 1) in
  checkb "quotient_violation at the bound" true (at Hsp.Instances.max_wires = None);
  checkb "quotient_violation past the bound names it" true
    (at (Hsp.Instances.max_wires + 1) = Some "more than 1024 cyclic factors (the wire bound)");
  (match Protocol.parse_request {|{"op":"sample","dims":[4]}|} with
  | Ok { req = Protocol.Sample { inst; _ }; _ } ->
      checkb "missing moduli means trivial H = A" true (inst.Protocol.moduli = [| 4 |])
  | _ -> Alcotest.fail "default moduli parse failed");
  (match Protocol.parse_request {|{"dims":[4]}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing op must not parse");
  (match Protocol.parse_request {|{"op":"sample","dims":[4],"backend":"warp"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown backend must not parse");
  match Protocol.parse_request "]]]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse"

(* ["backend":"auto"] is the omitted backend, not a backend of its own:
   it parses to the same instance and takes the same route at every
   size — dense, sparse past the dense sampler's cap, symbolic past an
   int. *)
let test_auto_backend_is_omitted () =
  setup ();
  let parse json =
    match Protocol.parse_request json with
    | Ok { req = Protocol.Sample { inst; _ }; _ } -> inst
    | Ok _ -> Alcotest.fail "parsed as wrong op"
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  List.iter
    (fun (dims, moduli, expected) ->
      let body = Printf.sprintf {|"op":"sample","dims":%s,"moduli":%s|} dims moduli in
      let omitted = parse ("{" ^ body ^ "}") in
      let auto = parse ("{" ^ body ^ {|,"backend":"auto"}|}) in
      checkb (dims ^ ": same instance") true (auto = omitted);
      checkb (dims ^ ": no backend") true (auto.Protocol.backend = None);
      match (Service.route omitted, Service.route auto) with
      | Ok a, Ok b ->
          checkb (dims ^ ": same route") true (a = b);
          checkb (dims ^ ": expected route") true (b = expected)
      | _ -> Alcotest.failf "%s: route failed" dims)
    [
      ("[8,8]", "[4,2]", Service.Amp Backend.Dense);
      ("[4096,2048]", "[64,32]", Service.Amp Backend.Sparse);
      ({|["2^200"]|}, {|["2^100","1^100"]|}, Service.Sym);
    ]

let test_jsonv_roundtrip () =
  let v =
    Jsonv.Obj
      [
        ("s", Jsonv.String "a\"b\\c\nd");
        ("i", Jsonv.Int (-42));
        ("f", Jsonv.Float 1.5);
        ("l", Jsonv.List [ Jsonv.Bool true; Jsonv.Null; Jsonv.Int 0 ]);
      ]
  in
  match Jsonv.of_string (Jsonv.to_string v) with
  | Ok v' -> checkb "roundtrip" true (v = v')
  | Error msg -> Alcotest.failf "roundtrip parse failed: %s" msg

(* Every finite float, subnormals included, must print to a form that
   parses back to the same bits and as a [Float]: the printer picks the
   shortest of 15, 16 or 17 digits that round-trips. *)
let jsonv_float_roundtrip =
  let gen =
    QCheck.Gen.(
      map2
        (fun bits subnormal ->
          (* a quarter of the draws clear the exponent: subnormals *)
          Int64.float_of_bits
            (if subnormal = 0 then Int64.logand bits 0x800F_FFFF_FFFF_FFFFL else bits))
        int64 (int_bound 3))
  in
  QCheck.Test.make ~count:2000 ~name:"jsonv float round-trips bit-identically"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match Jsonv.of_string (Jsonv.to_string (Jsonv.Float f)) with
      | Ok (Jsonv.Float g) -> Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float f)
      | Ok _ | Error _ -> false)

let test_jsonv_depth_cap () =
  let nested k = String.make k '[' ^ String.make k ']' in
  (match Jsonv.of_string (nested Jsonv.max_depth) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "nesting at the cap must parse: %s" msg);
  (match Jsonv.of_string (nested (Jsonv.max_depth + 1)) with
  | Error msg ->
      checkb "error names the cap" true
        (String.ends_with ~suffix:(Printf.sprintf "nesting deeper than %d" Jsonv.max_depth) msg)
  | Ok _ -> Alcotest.fail "nesting past the cap must not parse");
  checkb "a million [ is an Error, not a stack overflow" true
    (Result.is_error (Jsonv.of_string (String.make 1_000_000 '[')));
  checkb "deep objects are capped too" true
    (Result.is_error
       (Jsonv.of_string (String.concat "" (List.init 1000 (fun _ -> {|{"a":|})))))

let test_socket_malformed_survives () =
  setup ();
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hsp_test_service_%d.sock" (Unix.getpid ()))
  in
  let service = Service.create ~seed:13 () in
  let server_thread = Server.run_in_background ~socket_path:socket service in
  let fd = Server.connect ~socket_path:socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* garbage frame: structured malformed reply on the live connection *)
      Protocol.write_frame fd "{not json";
      (match Protocol.read_frame fd with
      | Some payload -> (
          match Jsonv.of_string payload with
          | Ok reply ->
              checkb "malformed reply is structured" true
                (match Jsonv.member "error" reply with
                | Some err -> Jsonv.member "kind" err = Some (Jsonv.String "malformed")
                | None -> false)
          | Error msg -> Alcotest.failf "unparseable error reply: %s" msg)
      | None -> Alcotest.fail "connection died on malformed input");
      (* a frame nested past Jsonv.max_depth: a typed malformed reply,
         not a stack overflow in the connection's thread *)
      Protocol.write_frame fd (String.make 1_000_000 '[');
      (match Protocol.read_frame fd with
      | Some payload -> (
          match Jsonv.of_string payload with
          | Ok reply ->
              checkb "deep frame gets a malformed reply" true
                (match Jsonv.member "error" reply with
                | Some err -> Jsonv.member "kind" err = Some (Jsonv.String "malformed")
                | None -> false)
          | Error msg -> Alcotest.failf "unparseable error reply: %s" msg)
      | None -> Alcotest.fail "connection died on a deeply nested frame");
      (* the same connection still serves valid requests *)
      let reply =
        Server.request fd
          (Jsonv.Obj
             [
               ("op", Jsonv.String "sample");
               ("dims", Jsonv.List [ Jsonv.Int 8 ]);
               ("moduli", Jsonv.List [ Jsonv.Int 2 ]);
               ("count", Jsonv.Int 3);
             ])
      in
      checkb "connection survives malformed input" true (reply_ok reply);
      let reply = Server.request fd (Jsonv.Obj [ ("op", Jsonv.String "shutdown") ]) in
      checkb "shutdown ok" true (reply_ok reply));
  Thread.join server_thread;
  checkb "socket file removed" false (Sys.file_exists socket)

(* Clients that hang up before their reply: the daemon's write to each
   dead connection fails with EPIPE, and the daemon must stay up for the
   next client.  The signal disposition is left to Server.listen. *)
let test_socket_hangups_survive () =
  setup ();
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hsp_test_hangup_%d.sock" (Unix.getpid ()))
  in
  let service = Service.create ~seed:17 () in
  let server_thread = Server.run_in_background ~socket_path:socket service in
  let solve =
    Jsonv.Obj
      [
        ("op", Jsonv.String "solve");
        ("dims", Jsonv.List [ Jsonv.Int 16; Jsonv.Int 16 ]);
        ("moduli", Jsonv.List [ Jsonv.Int 4; Jsonv.Int 8 ]);
      ]
  in
  for _ = 1 to 20 do
    let fd = Server.connect ~socket_path:socket in
    Protocol.write_frame fd (Jsonv.to_string solve);
    Unix.close fd
  done;
  let fd = Server.connect ~socket_path:socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      checkb "solve after the hang-ups answered" true (reply_ok (Server.request fd solve));
      let reply = Server.request fd (Jsonv.Obj [ ("op", Jsonv.String "shutdown") ]) in
      checkb "shutdown after the hang-ups answered" true (reply_ok reply));
  Thread.join server_thread;
  checkb "socket file removed" false (Sys.file_exists socket)

let () =
  Alcotest.run "service"
    [
      ( "uncapped-samplers",
        [
          Alcotest.test_case "Z_2^200 sampler constructs (sparse+symbolic)" `Quick
            test_planted_z2_200_constructs;
          Alcotest.test_case "rounds beyond the sparse cap (2^40)" `Quick
            test_planted_beyond_cap_rounds;
          Alcotest.test_case "sample_full classical_evals accounting" `Quick
            test_sample_full_classical_evals;
          Alcotest.test_case "state-valued sampler, 32 cosets" `Quick
            test_state_valued_many_cosets;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss/LRU eviction" `Quick test_cache_hit_miss_eviction;
          Alcotest.test_case "byte budget" `Quick test_cache_byte_budget;
          Alcotest.test_case "find_or_add builds once" `Quick test_cache_find_or_add;
          Alcotest.test_case "fingerprints distinct" `Quick test_fingerprint_distinct;
          Alcotest.test_case "omitted backend routes sparse past 2^22" `Quick
            test_route_omitted_backend;
        ] );
      ( "engine",
        [
          Alcotest.test_case "8 batched requests, 1 prep" `Quick
            test_batched_requests_share_one_prep;
          Alcotest.test_case "per-request ledger deltas" `Quick
            test_per_request_metrics_delta;
          Alcotest.test_case "typed solve + error replies" `Quick
            test_solve_and_errors_typed;
          Alcotest.test_case "batched = sequential distribution" `Slow
            test_batched_vs_sequential_distribution;
          Alcotest.test_case "cyclic factor past 2^30 solves" `Quick
            test_large_cyclic_factor_solves;
        ] );
      ("stress", List.map QCheck_alcotest.to_alcotest stress_props);
      ( "wire",
        [
          Alcotest.test_case "request parsing" `Quick test_protocol_parsing;
          Alcotest.test_case "auto backend parses as omitted" `Quick test_auto_backend_is_omitted;
          Alcotest.test_case "jsonv roundtrip" `Quick test_jsonv_roundtrip;
          Alcotest.test_case "jsonv depth cap" `Quick test_jsonv_depth_cap;
          QCheck_alcotest.to_alcotest jsonv_float_roundtrip;
          Alcotest.test_case "malformed input survives on socket" `Quick
            test_socket_malformed_survives;
          Alcotest.test_case "hang-ups before the reply survive" `Quick
            test_socket_hangups_survive;
        ] );
    ]
