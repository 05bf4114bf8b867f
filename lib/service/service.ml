(* The hsp_served engine: request execution over a shared artifact
   cache, with batching and per-request cost accounting.

   Quantum work is serialised through ONE executor thread; connection
   threads only parse frames and block on their job's condition
   variable.  Serial execution is what makes two things exact:

   - per-request ledger export: the global Metrics ledger is
     snapshotted around each unit of work, so a request's delta is
     attributable to it alone;
   - batching: the executor drains everything queued at once and
     groups sample requests by artifact fingerprint, so N concurrent
     requests against the same oracle share one cache lookup and —
     on a cold cache — exactly one O(|A|) prep pass (ledger:
     sampler_preps counts distinct oracles, never requests).

   Cached artifacts are the expensive preps of lib/quantum: CSR
   coset buckets (Coset_state.prep) for amplitude backends,
   canonicalised HNF subgroups with their memoised annihilator solves
   (Backend_symbolic.Subgroup.t) for the symbolic route.  The check op
   reads the cache but never fills it. *)

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
  mutable batched_groups : int;  (* sample groups executed with >1 member *)
  mutable batched_requests : int;  (* requests that rode in such a group *)
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
      batched_groups = 0;
      batched_requests = 0;
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

(* One group of sample requests sharing a fingerprint: one artifact
   fetch (one prep on a cold cache), then each member draws its own
   outcomes with its own query counter and RNG.  The first member's
   ledger window opens before the fetch, so a cold prep is charged to
   the reply that triggered it, as [exec_solve] charges its own. *)
let exec_sample_group t (inst : Protocol.instance) rt jobs =
  let n = List.length jobs in
  if n > 1 then begin
    t.batched_groups <- t.batched_groups + 1;
    t.batched_requests <- t.batched_requests + n
  end;
  let first_before = Quantum.Metrics.snapshot () in
  match artifact_for t inst rt with
  | exception exn ->
      List.iter
        (fun (job, _, _) -> job.reply <- Some (classified_error ~id:job.env.Protocol.id exn))
        jobs
  | key, artifact, hit ->
      List.iteri
        (fun i (job, count, seed) ->
          let id = job.env.Protocol.id in
          job.reply <-
            Some
              (with_classified_errors ~id @@ fun () ->
               let before = if i = 0 then first_before else Quantum.Metrics.snapshot () in
               let queries = Quantum.Query.create () in
               let draw = sampler_of_artifact artifact ~queries in
               let rng = rng_for t seed in
               let outcomes = List.init count (fun _ -> draw rng) in
               let after = Quantum.Metrics.snapshot () in
               Protocol.ok_response ~id
                 [
                   ("op", Jsonv.String "sample");
                   ("outcomes", Jsonv.List (List.map json_of_outcome outcomes));
                   ("quantum_queries", Jsonv.Int (Quantum.Query.count queries));
                   ("cache", cache_json ~key ~hit);
                   ("batched", Jsonv.Int n);
                   ("metrics", Jsonv.Obj (metrics_delta before after));
                 ]))
        jobs

let exec_solve t (inst : Protocol.instance) rt ~seed ~id =
  with_classified_errors ~id @@ fun () ->
  let before = Quantum.Metrics.snapshot () in
  let key, artifact, hit = artifact_for t inst rt in
  let queries = Quantum.Query.create () in
  let draw = sampler_of_artifact artifact ~queries in
  let rng = rng_for t seed in
  let res =
    Hsp.Abelian_hsp.solve_quotient rng ~draw ~dims:inst.dims ~moduli:inst.moduli
      ~quantum:queries ()
  in
  let after = Quantum.Metrics.snapshot () in
  Protocol.ok_response ~id
    [
      ("op", Jsonv.String "solve");
      ("generators", Jsonv.List (List.map json_of_outcome res.Hsp.Abelian_hsp.gens));
      ("rounds", Jsonv.Int res.Hsp.Abelian_hsp.rounds);
      ("verified", Jsonv.Bool res.Hsp.Abelian_hsp.ok);
      ( "subgroup_log2",
        Jsonv.Float (Quantum.Backend_symbolic.Subgroup.order_log2 res.Hsp.Abelian_hsp.recovered) );
      ("quantum_queries", Jsonv.Int (Quantum.Query.count queries));
      ("seconds", Jsonv.Float res.Hsp.Abelian_hsp.seconds);
      ("cache", cache_json ~key ~hit);
      ("metrics", Jsonv.Obj (metrics_delta before after));
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
      ("batched_groups", Jsonv.Int t.batched_groups);
      ("batched_requests", Jsonv.Int t.batched_requests);
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
  let reply =
    match job.env.Protocol.req with
    | Protocol.Stats -> exec_stats t ~id
    | Protocol.Shutdown ->
        Protocol.ok_response ~id [ ("op", Jsonv.String "shutdown"); ("stopping", Jsonv.Bool true) ]
    | Protocol.Check_circuit { inst } -> (
        match admit ~id inst with Error reply -> reply | Ok rt -> exec_check t inst rt ~id)
    | Protocol.Solve { inst; seed } -> (
        match admit ~id inst with Error reply -> reply | Ok rt -> exec_solve t inst rt ~seed ~id)
    | Protocol.Sample _ -> assert false  (* handled by exec_batch *)
  in
  finish job reply

(* Drain-and-group: everything queued at wake-up time is one batch.
   Sample jobs are grouped by fingerprint and each group executed as a
   unit; other ops run in arrival order after. *)
let exec_batch t jobs =
  let samples : (string, (Protocol.instance * route * (job * int * int option) list) ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let others = ref [] in
  let order = ref [] in
  List.iter
    (fun job ->
      match job.env.Protocol.req with
      | Protocol.Sample { inst; count; seed } -> (
          match admit ~id:job.env.Protocol.id inst with
          | Error reply -> finish job reply
          | Ok rt -> (
              let key = fingerprint inst rt in
              match Hashtbl.find_opt samples key with
              | Some group ->
                  let i, r, members = !group in
                  group := (i, r, (job, count, seed) :: members)
              | None ->
                  Hashtbl.add samples key (ref (inst, rt, [ (job, count, seed) ]));
                  order := key :: !order))
      | _ -> others := job :: !others)
    jobs;
  List.iter
    (fun key ->
      match Hashtbl.find_opt samples key with
      | None -> ()
      | Some group ->
          let inst, rt, members = !group in
          let members = List.rev members in
          exec_sample_group t inst rt members;
          List.iter
            (fun (job, _, _) ->
              match job.reply with
              | Some reply -> finish job reply
              | None ->
                  finish job
                    (Protocol.error_response ~id:job.env.Protocol.id Protocol.Crashed
                       "internal: sample group produced no reply"))
            members)
    (List.rev !order);
  List.iter (exec_one t) (List.rev !others)

let executor_loop t =
  let rec loop () =
    let jobs, stop_after =
      Mutex.protect t.qlock (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.qcond t.qlock
          done;
          let drained = ref [] in
          while not (Queue.is_empty t.queue) do
            drained := Queue.pop t.queue :: !drained
          done;
          (List.rev !drained, t.stopping))
    in
    t.served <- t.served + List.length jobs;
    exec_batch t jobs;
    if not stop_after then loop ()
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
