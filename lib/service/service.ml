(* The hsp_served engine: request execution over a shared artifact
   cache, with per-request cost accounting.

   Quantum work is serialised through ONE executor thread that takes
   jobs one at a time in arrival order; connection threads only parse
   frames and block on their job's condition variable.  Serial
   execution is what makes the per-request ledger export exact: the
   global Metrics ledger is snapshotted around each request, so its
   delta is attributable to it alone.

   Cached artifacts are the expensive preps of lib/quantum: CSR
   coset buckets (Coset_state.prep) for amplitude backends,
   canonicalised HNF subgroups with their memoised annihilator solves
   (Backend_symbolic.Subgroup.t) for the symbolic route.  The cache is
   the one place preps are shared: the first request on a cold oracle
   pays its O(|A|) prep and every later one hits, so the ledger's
   sampler_preps counts distinct oracles, never requests.  The check
   op reads the cache but never fills it. *)

type artifact =
  | Buckets of Quantum.Coset_state.prep
  | Subgroup of Quantum.Backend_symbolic.Subgroup.t

type route = Sym | Amp of Quantum.Backend.choice

type job = {
  env : Protocol.envelope;
  jlock : Mutex.t;
  jcond : Condition.t;
  mutable reply : Jsonv.t option;
}

type t = {
  cache : (string, artifact) Cache.t;
  rng : Random.State.t;  (* executor-thread only *)
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable stopping : bool;
  mutable executor : Thread.t option;
  mutable served : int;
}

let create ?(cache_entries = 64) ?(cache_bytes = 256 * 1024 * 1024) ?(seed = 0) () =
  let bytes_of = function
    | Buckets p -> Quantum.Coset_state.prep_bytes p
    | Subgroup s ->
        (* HNF basis + memoised dual: two r x r integer matrices *)
        let r = Array.length (Quantum.Backend_symbolic.Subgroup.dims s) in
        (Sys.word_size / 8) * ((2 * r * r) + 64)
  in
  let t =
    {
      cache = Cache.create ~max_entries:cache_entries ~max_bytes:cache_bytes ~bytes_of ();
      rng = Random.State.make [| 0x68737064; seed |];
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      stopping = false;
      executor = None;
      served = 0;
    }
  in
  t

(* ------------------------------------------------------------------ *)
(* Instance validation and routing                                     *)
(* ------------------------------------------------------------------ *)

let validate (inst : Protocol.instance) =
  let r = Array.length inst.dims in
  if r = 0 then Error "dims must be non-empty"
  else if Array.length inst.moduli <> r then Error "dims and moduli must have the same length"
  else
    match Hsp.Instances.quotient_violation ~dims:inst.dims ~moduli:inst.moduli with
    | Some msg -> Error msg
    | None -> Ok ()

let route (inst : Protocol.instance) =
  let total = Quantum.Backend.total_of_opt inst.dims in
  match (inst.backend, total) with
  | Some Quantum.Backend.Symbolic, _ -> Ok Sym
  | None, _ -> (
      match total with
      | Some tot when tot <= Quantum.Backend.Caps.coset_sparse ->
          Ok (Amp (Quantum.Coset_state.oracle_backend ~total:tot ()))
      | _ -> Ok Sym)
  | Some c, Some _ -> Ok (Amp c)  (* size caps enforced by the prep itself *)
  | Some c, None ->
      Error
        (Printf.sprintf
           "backend %s cannot form this register (total dimension overflows an int); use \
            symbolic"
           (Quantum.Backend.choice_to_string c))

(* Every instance-carrying op is admitted the same way: validated, then
   routed; either failure is the request's [Rejected] reply. *)
let admit ~id inst =
  Result.map_error (Protocol.error_response ~id Protocol.Rejected)
    (Result.bind (validate inst) (fun () -> route inst))

let route_to_string = function
  | Sym -> "symbolic"
  | Amp c -> Quantum.Backend.choice_to_string c

let csv a = String.concat "," (List.map string_of_int (Array.to_list a))

(* Artifact key: digest of the canonical instance serialisation plus
   the resolved route (a dense prep and a symbolic subgroup for the
   same oracle are different artifacts).  The digest keeps keys
   fixed-size; collision safety is covered by test_service. *)
let fingerprint (inst : Protocol.instance) rt =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "v1|%s|dims=%s|moduli=%s" (route_to_string rt) (csv inst.dims)
          (csv inst.moduli)))

(* The planted quotient instance: H = <m_i e_i>, hidden by
   f(x) = (x_i mod m_i). *)
let truth (inst : Protocol.instance) =
  Hsp.Instances.quotient_subgroup ~dims:inst.dims ~moduli:inst.moduli

let oracle (inst : Protocol.instance) = Hsp.Instances.quotient_oracle ~moduli:inst.moduli

let artifact_for t (inst : Protocol.instance) rt =
  let key = fingerprint inst rt in
  let build () =
    match rt with
    | Sym -> Subgroup (truth inst)
    | Amp c ->
        let p = Quantum.Coset_state.prep ~backend:c ~dims:inst.dims ~f:(oracle inst) () in
        (* force now: the artifact must be immediately shareable and its
           one sampler_prep tick attributable to this build *)
        Quantum.Coset_state.prep_force p;
        Buckets p
  in
  let artifact, hit = Cache.find_or_add t.cache key build in
  (key, artifact, hit)

let sampler_of_artifact artifact ~queries =
  match artifact with
  | Buckets p -> Quantum.Coset_state.sampler_of_prep p ~queries ()
  | Subgroup s ->
      Quantum.Coset_state.sampler_of_subgroup ~backend:Quantum.Backend.Symbolic ~sub:s
        ~queries ()

(* ------------------------------------------------------------------ *)
(* Per-request ledger deltas                                           *)
(* ------------------------------------------------------------------ *)

(* Phase seconds as the ledger reports them: to the microsecond. *)
let micros sec = Float.round (sec *. 1e6) /. 1e6

(* Only the fields the request moved: an absent field means 0.  A
   phase the request did not enter (or left within a microsecond) is
   absent too. *)
let metrics_delta (before : Quantum.Metrics.snapshot) (after : Quantum.Metrics.snapshot) =
  let counters =
    List.fold_right2
      (fun (k, vb) (_, va) acc -> if va = vb then acc else (k, Jsonv.Int (va - vb)) :: acc)
      (Quantum.Metrics.counters before) (Quantum.Metrics.counters after) []
  in
  let phases =
    List.filter_map
      (fun (name, sa) ->
        let sb =
          List.find_map (fun (n, s) -> if String.equal n name then Some s else None) before.phases
          |> Option.value ~default:0.0
        in
        let sec = micros (sa -. sb) in
        if Float.equal sec 0.0 then None else Some ("sec_" ^ name, Jsonv.Float sec))
      after.phases
  in
  counters @ phases

(* ------------------------------------------------------------------ *)
(* Request execution (executor thread)                                 *)
(* ------------------------------------------------------------------ *)

let rng_for t = function
  | Some seed -> Random.State.make [| 0x68737065; seed |]
  | None -> t.rng

let json_of_outcome o = Jsonv.List (List.map (fun v -> Jsonv.Int v) (Array.to_list o))

let cache_json ~key ~hit =
  Jsonv.Obj [ ("hit", Jsonv.Bool hit); ("key", Jsonv.String key) ]

let classified_error ~id exn =
  let failure = Hsp.Runner.classify_failure exn in
  let kind =
    match failure with
    | Hsp.Runner.Retryable _ -> Protocol.Retryable
    | Hsp.Runner.Rejected _ -> Protocol.Rejected
    | Hsp.Runner.Crashed _ -> Protocol.Crashed
  in
  Protocol.error_response ~id kind (Hsp.Runner.failure_to_string failure)

let with_classified_errors ~id f = try f () with exn -> classified_error ~id exn

(* Sample and solve: fetch the artifact (one prep on a cold cache),
   then draw with the request's own query counter and RNG.  The ledger
   window opens before the fetch, so a cold prep is charged to the
   reply that triggered it.  [body] returns the op's own fields. *)
let exec_sampling t (inst : Protocol.instance) rt ~seed ~id ~op body =
  with_classified_errors ~id @@ fun () ->
  let before = Quantum.Metrics.snapshot () in
  let key, artifact, hit = artifact_for t inst rt in
  let queries = Quantum.Query.create () in
  let fields = body ~draw:(sampler_of_artifact artifact ~queries) ~rng:(rng_for t seed) ~queries in
  let after = Quantum.Metrics.snapshot () in
  Protocol.ok_response ~id
    ((("op", Jsonv.String op) :: fields)
    @ [
        ("quantum_queries", Jsonv.Int (Quantum.Query.count queries));
        ("cache", cache_json ~key ~hit);
        ("metrics", Jsonv.Obj (metrics_delta before after));
      ])

let exec_sample t inst rt ~count ~seed ~id =
  exec_sampling t inst rt ~seed ~id ~op:"sample" @@ fun ~draw ~rng ~queries:_ ->
  [ ("outcomes", Jsonv.List (List.init count (fun _ -> json_of_outcome (draw rng)))) ]

let exec_solve t (inst : Protocol.instance) rt ~seed ~id =
  exec_sampling t inst rt ~seed ~id ~op:"solve" @@ fun ~draw ~rng ~queries ->
  let res =
    Hsp.Abelian_hsp.solve_quotient rng ~draw ~dims:inst.dims ~moduli:inst.moduli
      ~quantum:queries ()
  in
  [
    ("generators", Jsonv.List (List.map json_of_outcome res.Hsp.Abelian_hsp.gens));
    ("rounds", Jsonv.Int res.Hsp.Abelian_hsp.rounds);
    ("verified", Jsonv.Bool res.Hsp.Abelian_hsp.ok);
    ( "subgroup_log2",
      Jsonv.Float (Quantum.Backend_symbolic.Subgroup.order_log2 res.Hsp.Abelian_hsp.recovered) );
    ("seconds", Jsonv.Float res.Hsp.Abelian_hsp.seconds);
  ]

let exec_check t (inst : Protocol.instance) rt ~id =
  with_classified_errors ~id @@ fun () ->
  let total = Quantum.Backend.total_of_opt inst.dims in
  let log2_of a =
    Array.fold_left (fun acc d -> acc +. (log (float_of_int d) /. log 2.)) 0. a
  in
  let key = fingerprint inst rt in
  Protocol.ok_response ~id
    [
      ("op", Jsonv.String "check-circuit");
      ("route", Jsonv.String (route_to_string rt));
      ("wires", Jsonv.Int (Array.length inst.dims));
      ("total_dim", (match total with Some tot -> Jsonv.Int tot | None -> Jsonv.Null));
      ("log2_dim", Jsonv.Float (log2_of inst.dims));
      ("subgroup_log2", Jsonv.Float (Quantum.Backend_symbolic.Subgroup.order_log2 (truth inst)));
      ( "dense_capped",
        Jsonv.Bool
          (match total with
          | Some tot -> tot > Quantum.Backend.Caps.coset_dense
          | None -> true) );
      ( "sparse_capped",
        Jsonv.Bool
          (match total with
          | Some tot -> tot > Quantum.Backend.Caps.coset_sparse
          | None -> true) );
      ("cached", Jsonv.Bool (Cache.mem t.cache key));
      ("fingerprint", Jsonv.String key);
    ]

let exec_stats t ~id =
  let s = Cache.stats t.cache in
  let ledger = Quantum.Metrics.snapshot () in
  Protocol.ok_response ~id
    [
      ("op", Jsonv.String "stats");
      ( "cache",
        Jsonv.Obj
          [
            ("hits", Jsonv.Int s.Cache.hits);
            ("misses", Jsonv.Int s.Cache.misses);
            ("evictions", Jsonv.Int s.Cache.evictions);
            ("entries", Jsonv.Int s.Cache.entries);
            ("bytes", Jsonv.Int s.Cache.bytes);
          ] );
      ("served", Jsonv.Int t.served);
      ( "ledger",
        Jsonv.Obj
          (List.map (fun (k, v) -> (k, Jsonv.Int v)) (Quantum.Metrics.counters ledger)
          @ List.map (fun (name, sec) -> ("sec_" ^ name, Jsonv.Float (micros sec))) ledger.phases
          ) );
    ]

(* ------------------------------------------------------------------ *)
(* Executor loop                                                       *)
(* ------------------------------------------------------------------ *)

let finish job reply =
  Mutex.protect job.jlock (fun () ->
      job.reply <- Some reply;
      Condition.signal job.jcond)

let exec_one t job =
  let id = job.env.Protocol.id in
  let admitted inst exec = match admit ~id inst with Error reply -> reply | Ok rt -> exec rt in
  let reply =
    match job.env.Protocol.req with
    | Protocol.Stats -> exec_stats t ~id
    | Protocol.Shutdown ->
        Protocol.ok_response ~id [ ("op", Jsonv.String "shutdown"); ("stopping", Jsonv.Bool true) ]
    | Protocol.Check_circuit { inst } -> admitted inst (fun rt -> exec_check t inst rt ~id)
    | Protocol.Solve { inst; seed } -> admitted inst (fun rt -> exec_solve t inst rt ~seed ~id)
    | Protocol.Sample { inst; count; seed } ->
        admitted inst (fun rt -> exec_sample t inst rt ~count ~seed ~id)
  in
  finish job reply

(* One job at a time, in arrival order.  After [stop] the loop still
   runs everything queued before it, then exits on the empty queue. *)
let executor_loop t =
  let rec loop () =
    let next =
      Mutex.protect t.qlock (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.qcond t.qlock
          done;
          Queue.take_opt t.queue)
    in
    match next with
    | None -> ()
    | Some job ->
        t.served <- t.served + 1;
        exec_one t job;
        loop ()
  in
  loop ()

let start t =
  match t.executor with
  | Some _ -> ()
  | None -> t.executor <- Some (Thread.create executor_loop t)

let stop t =
  Mutex.protect t.qlock (fun () ->
      t.stopping <- true;
      Condition.broadcast t.qcond);
  (match t.executor with Some th -> Thread.join th | None -> ());
  t.executor <- None

let submit t env =
  let job = { env; jlock = Mutex.create (); jcond = Condition.create (); reply = None } in
  let enqueued =
    Mutex.protect t.qlock (fun () ->
        if t.stopping then false
        else begin
          Queue.push job t.queue;
          Condition.signal t.qcond;
          true
        end)
  in
  if not enqueued then
    Protocol.error_response ~id:env.Protocol.id Protocol.Rejected "service is shutting down"
  else
    Mutex.protect job.jlock (fun () ->
        while job.reply = None do
          Condition.wait job.jcond job.jlock
        done;
        Option.get job.reply)

let cache_stats t = Cache.stats t.cache
let pending t = Mutex.protect t.qlock (fun () -> Queue.length t.queue)
