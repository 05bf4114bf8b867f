(* What a traced run collects, and how it becomes the per-layer metrics.

   Ledger counts and phase times are the difference of two
   [Quantum.Metrics] snapshots taken around the measured window;
   everything else is timed or counted by the harness at its calls into
   the program, or read from the daemon's wire [stats] op. *)

module M = Quantum.Metrics

type t = {
  mutable ops : int;
  mutable before : M.snapshot option;
  mutable after : M.snapshot option;
  mutable bytes : float;  (* computed, summed over Fourier passes *)
  mutable flops : float;
  mutable build_s : float;
  mutable round_us : float list;
  mutable oracle_evals : int;
  mutable rounds : int;
  mutable batches : int;
  mutable exec_ms : float list;
  mutable wait_ms : float list;
  mutable batched : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable cache_bytes : int;
  mutable encode_us : float list;
  mutable decode_us : float list;
  mutable reply_bytes : float list;
  mutable coverage : float;
  mutable overhead_pct : float;
}

let create () =
  {
    ops = 0; before = None; after = None; bytes = 0.; flops = 0.; build_s = 0.;
    round_us = []; oracle_evals = 0; rounds = 0; batches = 0; exec_ms = []; wait_ms = [];
    batched = 0; hits = 0; misses = 0; evictions = 0; cache_bytes = 0; encode_us = [];
    decode_us = []; reply_bytes = []; coverage = 0.; overhead_pct = 0.;
  }

let add_pass t p ~count =
  let bytes, flops = Plant.pass_work p in
  t.bytes <- t.bytes +. (float_of_int count *. bytes);
  t.flops <- t.flops +. (float_of_int count *. flops)

let p50 l = Stats.percentile (Array.of_list l) 0.5

let values t =
  let per x = x /. float_of_int (max 1 t.ops) in
  let int_per f =
    match (t.before, t.after) with
    | Some a, Some b -> per (float_of_int (f b - f a))
    | _ -> 0.
  in
  let phase name =
    let get (s : M.snapshot) = Option.value ~default:0. (List.assoc_opt name s.M.phases) in
    match (t.before, t.after) with Some a, Some b -> per (get b -. get a) | _ -> 0.
  in
  let p50_or_zero l = if l = [] then 0. else p50 l in
  let lookups = t.hits + t.misses in
  [
    ("qft.s", phase "fourier");
    ("qft.dft_fibres", int_per (fun s -> s.M.dft_fibres));
    ("qft.gate_fibres", int_per (fun s -> s.M.gate_fibres));
    ("qft.bytes_computed", per t.bytes);
    ("qft.flop_computed", per t.flops);
    ("state.measure_s", phase "measure");
    ("state.measurements", int_per (fun s -> s.M.measurements));
    ( "state.peak_dense_alloc",
      match t.after with Some s -> float_of_int s.M.peak_dense_alloc | None -> 0. );
    ("coset_state.prep_s", phase "sample-prep");
    ("coset_state.build_s", per t.build_s);
    ("coset_state.preps", int_per (fun s -> s.M.sampler_preps));
    ("coset_state.coset_visits", int_per (fun s -> s.M.coset_visits));
    ("coset_state.round_us.p50", p50_or_zero t.round_us);
    ("oracle.evals", per (float_of_int t.oracle_evals));
    ("abelian_hsp.classical_s", phase "classical");
    ("abelian_hsp.rounds", per (float_of_int t.rounds));
    ("abelian_hsp.batches", per (float_of_int t.batches));
    ("backend_symbolic.rewrites", int_per (fun s -> s.M.symbolic_rewrites));
    ("backend_symbolic.samples", int_per (fun s -> s.M.symbolic_samples));
    ("backend_symbolic.solves", int_per (fun s -> s.M.symbolic_solves));
    ("backend_symbolic.demotions", int_per (fun s -> s.M.symbolic_demotions));
    ("service.exec_ms.p50", p50_or_zero t.exec_ms);
    ("service.wait_ms.p50", p50_or_zero t.wait_ms);
    ("service.batched_requests", per (float_of_int t.batched));
    ( "cache.hit_ratio",
      if lookups = 0 then 0. else float_of_int t.hits /. float_of_int lookups );
    ("cache.misses", per (float_of_int t.misses));
    ("cache.evictions", per (float_of_int t.evictions));
    ("cache.bytes", float_of_int t.cache_bytes);
    ("protocol.encode_us.p50", p50_or_zero t.encode_us);
    ("protocol.decode_us.p50", p50_or_zero t.decode_us);
    ("protocol.reply_bytes.p50", p50_or_zero t.reply_bytes);
    ("trace.coverage", t.coverage);
    ("trace.overhead_pct", t.overhead_pct);
  ]
