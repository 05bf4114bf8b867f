(* Persistent domain pool for the dense backend's parallel kernels.

   Design constraints (see DESIGN.md "Parallel execution"):

   - the job count is a session-wide knob (HSP_JOBS / hsp_cli --jobs,
     default 1) and jobs = 1 must cost nothing: no domains are spawned
     and every parallel_for degenerates to the plain serial loop;
   - results must be bit-for-bit identical at every job count.  Work is
     split into contiguous chunks whose boundaries depend only on the
     index range (and, for reductions, an explicit ~chunks fixed by the
     caller independently of the job count); which domain executes a
     chunk never influences what is computed, and ordered reductions
     (map_chunks) combine per-chunk results in chunk order;
   - the pool is persistent: workers are spawned lazily on the first
     parallel region, parked on a condition variable between regions,
     and resized only when the job count changes.  A per-kernel
     Domain.spawn would cost ~100us per call, comparable to an entire
     small-register kernel.

   The adversarial scheduler (set_sched Shuffle) stresses the
   determinism contract at runtime: chunks execute in a seeded-permuted
   order while everything keyed by chunk index (output ranges,
   map_chunks slots) is untouched, so any hidden
   dependence on execution order trips the digest gates in
   test_parallel / test_matrix / bench. *)

let max_jobs = 64

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 && n <= max_jobs -> n
  | _ ->
      invalid_arg
        (Printf.sprintf "HSP_JOBS: expected an integer in 1..%d, got %S" max_jobs s)

let env_default =
  lazy (match Sys.getenv_opt "HSP_JOBS" with None -> 1 | Some s -> parse_jobs s)

let current = Atomic.make None
let jobs () = match Atomic.get current with Some j -> j | None -> Lazy.force env_default

let set_jobs n =
  if n < 1 || n > max_jobs then
    invalid_arg (Printf.sprintf "Parallel.set_jobs: expected 1..%d, got %d" max_jobs n);
  Atomic.set current (Some n)

(* ------------------------------------------------------------------ *)
(* Adversarial chunk scheduler                                        *)
(* ------------------------------------------------------------------ *)

type sched = Fifo | Shuffle

let current_sched = Atomic.make Fifo
let sched () = Atomic.get current_sched
let set_sched s = Atomic.set current_sched s

(* Each parallel region draws a fresh permutation, seeded by a region
   counter rather than wall-clock state so a failing order is
   reproducible from the region index alone. *)
let shuffle_region = Atomic.make 0

(* [Some perm] when shuffling: slot [k] of the region executes chunk
   [perm.(k)].  Identity (None) under Fifo or for trivial regions. *)
let chunk_order nchunks =
  match sched () with
  | Fifo -> None
  | Shuffle ->
      if nchunks <= 1 then None
      else begin
        let region = Atomic.fetch_and_add shuffle_region 1 in
        let st = Random.State.make [| 0x5eed; nchunks; region |] in
        let perm = Array.init nchunks (fun c -> c) in
        for i = nchunks - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        Some perm
      end

(* ------------------------------------------------------------------ *)
(* Chunk geometry                                                     *)
(* ------------------------------------------------------------------ *)

(* Chunk c of [nchunks] over [lo, hi) is [bound c, bound (c+1)); the
   split depends only on the range and the chunk count, never on the
   job count or scheduling. *)
let chunk_bound ~lo ~hi ~nchunks c = lo + ((hi - lo) * c / nchunks)

(* ------------------------------------------------------------------ *)
(* The pool                                                           *)
(* ------------------------------------------------------------------ *)

type job = {
  nchunks : int;
  run : int -> unit;  (* run slot [k]; must only write chunk-local or per-chunk data *)
  next : int Atomic.t;  (* next unclaimed slot *)
  pending : int Atomic.t;  (* slots not yet finished *)
  mutable failure : exn option;  (* first exception, under the pool mutex *)
}

type pool = {
  size : int;  (* worker domains, = jobs - 1 *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable generation : int;  (* bumped once per posted job *)
  mutable stopping : bool;
  mutable busy : bool;  (* a region is in flight (reentrance guard) *)
  mutable domains : unit Domain.t list;
}

let the_pool : pool option Atomic.t = Atomic.make None

(* Claim and run slots until the job is drained.  Executed by the
   caller and by every worker; slot claiming is a single
   fetch-and-add, so each slot runs exactly once. *)
let drain pool job =
  let continue_ = ref true in
  while !continue_ do
    let k = Atomic.fetch_and_add job.next 1 in
    if k >= job.nchunks then continue_ := false
    else begin
      (try job.run k
       with exn ->
         Mutex.protect pool.mutex (fun () ->
             match job.failure with None -> job.failure <- Some exn | Some _ -> ()));
      if Atomic.fetch_and_add job.pending (-1) = 1 then
        (* last slot: wake the caller waiting in run_chunked *)
        Mutex.protect pool.mutex (fun () -> Condition.broadcast pool.work_done)
    end
  done

let rec worker_loop pool last_gen =
  let posted =
    Mutex.protect pool.mutex (fun () ->
        while (not pool.stopping) && pool.generation = last_gen do
          Condition.wait pool.work_ready pool.mutex
        done;
        if pool.stopping then None else Some (pool.generation, pool.job))
  in
  match posted with
  | None -> ()
  | Some (gen, job) ->
      (* A stale job (already drained while we were waking up) is safe:
         every slot claim past nchunks is a no-op. *)
      (match job with None -> () | Some j -> drain pool j);
      worker_loop pool gen

let create_pool size =
  let pool =
    {
      size;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      stopping = false;
      busy = false;
      domains = [];
    }
  in
  pool.domains <- List.init size (fun _ -> Domain.spawn (fun () -> worker_loop pool 0));
  pool

let shutdown_pool pool =
  Mutex.protect pool.mutex (fun () ->
      pool.stopping <- true;
      Condition.broadcast pool.work_ready);
  List.iter Domain.join pool.domains

let () =
  at_exit (fun () -> match Atomic.get the_pool with None -> () | Some p -> shutdown_pool p)

(* The pool matching the current job count, (re)spawned lazily.  Only
   ever called from the orchestrating domain, so the swap itself is
   single-threaded; Atomic publishes it to the at_exit hook. *)
let get_pool () =
  let want = jobs () - 1 in
  match Atomic.get the_pool with
  | Some p when p.size = want -> p
  | prev ->
      (match prev with None -> () | Some p -> shutdown_pool p);
      let p = create_pool want in
      Atomic.set the_pool (Some p);
      p

let run_serial ?order ~lo ~hi ~nchunks body =
  for k = 0 to nchunks - 1 do
    let c = match order with None -> k | Some perm -> perm.(k) in
    let clo = chunk_bound ~lo ~hi ~nchunks c and chi = chunk_bound ~lo ~hi ~nchunks (c + 1) in
    if chi > clo then body c clo chi
  done

(* Run [body c clo chi] for every chunk, on the pool when it helps. *)
let run_chunked ?chunks lo hi body =
  if hi > lo then begin
    let j = jobs () in
    let nchunks =
      match chunks with
      | Some c ->
          if c < 1 then invalid_arg "Parallel: chunks < 1";
          min c (hi - lo)
      | None -> min (hi - lo) (if j = 1 then 1 else 4 * j)
    in
    let order = chunk_order nchunks in
    if j = 1 || nchunks = 1 then run_serial ?order ~lo ~hi ~nchunks body
    else begin
      let pool = get_pool () in
      let reentrant = pool.busy in
      if reentrant then
        (* a kernel nested inside another parallel region: run it
           serially rather than deadlock on the shared pool *)
        run_serial ?order ~lo ~hi ~nchunks body
      else begin
        pool.busy <- true;
        let job =
          {
            nchunks;
            run =
              (fun k ->
                let c = match order with None -> k | Some perm -> perm.(k) in
                let clo = chunk_bound ~lo ~hi ~nchunks c
                and chi = chunk_bound ~lo ~hi ~nchunks (c + 1) in
                if chi > clo then body c clo chi);
            next = Atomic.make 0;
            pending = Atomic.make nchunks;
            failure = None;
          }
        in
        Mutex.protect pool.mutex (fun () ->
            pool.job <- Some job;
            pool.generation <- pool.generation + 1;
            Condition.broadcast pool.work_ready);
        drain pool job;
        Mutex.protect pool.mutex (fun () ->
            while Atomic.get job.pending > 0 do
              Condition.wait pool.work_done pool.mutex
            done;
            pool.job <- None);
        pool.busy <- false;
        match job.failure with None -> () | Some exn -> raise exn
      end
    end
  end

let parallel_for ?chunks lo hi body = run_chunked ?chunks lo hi (fun _ clo chi -> body clo chi)

let map_chunks ~chunks lo hi body =
  if hi <= lo then [||]
  else begin
    if chunks < 1 then invalid_arg "Parallel.map_chunks: chunks < 1";
    let nchunks = min chunks (hi - lo) in
    let results = Array.make nchunks None in
    run_chunked ~chunks:nchunks lo hi (fun c clo chi -> results.(c) <- Some (body clo chi));
    Array.map (function Some r -> r | None -> assert false) results
  end

let reduction_chunks ~slot_words total =
  (* Fixed by the workload geometry alone (never by the job count), so
     ordered reductions are schedule-invariant; at most 64 chunks, and
     capped so the per-chunk partial buffers stay within ~8M words
     (64 MB) total. *)
  let by_mem = max 1 ((1 lsl 23) / max 1 slot_words) in
  max 1 (min (min 64 by_mem) total)
