(* Global cost ledger for the simulator.

   Per-call counters (gates, DFTs, basis maps, oracle ops, measurements,
   states created) are ticked by the {!State} dispatcher, so a dense and
   a sparse run of the same sampling pipeline report identical values; the
   work/allocation statistics (fibre counts, peak support, pruned
   amplitudes, peak dense allocation) are recorded inside the backends
   and are exactly where the two representations differ. *)

type snapshot = {
  gate_apps : int;
  gate_fibres : int;
  dft_apps : int;
  dft_fibres : int;
  basis_maps : int;
  oracle_ops : int;
  measurements : int;
  states_created : int;
  peak_support : int;
  pruned_amps : int;
  peak_dense_alloc : int;
  sampler_preps : int;
  coset_visits : int;
  classical_evals : int;
  symbolic_rewrites : int;
  symbolic_samples : int;
  symbolic_solves : int;
  symbolic_demotions : int;
  phases : (string * float) list;
}

(* Atomic counters: the dense backend's kernels run on a domain pool
   (see {!Parallel}), so the ledger must tolerate concurrent ticks.
   The provided kernels only tick counters outside parallel regions,
   but atomics make the ledger safe for any backend code and cost
   nothing measurable at per-operation granularity. *)
let gate_apps = Atomic.make 0
let gate_fibres = Atomic.make 0
let dft_apps = Atomic.make 0
let dft_fibres = Atomic.make 0
let basis_maps = Atomic.make 0
let oracle_ops = Atomic.make 0
let measurements = Atomic.make 0
let states_created = Atomic.make 0
let peak_support = Atomic.make 0
let pruned_amps = Atomic.make 0
let peak_dense_alloc = Atomic.make 0
let sampler_preps = Atomic.make 0
let coset_visits = Atomic.make 0
let classical_evals = Atomic.make 0
let symbolic_rewrites = Atomic.make 0
let symbolic_samples = Atomic.make 0
let symbolic_solves = Atomic.make 0
let symbolic_demotions = Atomic.make 0

let tick c = ignore (Atomic.fetch_and_add c 1)
let add c n = ignore (Atomic.fetch_and_add c n)

(* Monotone high-water mark via compare-and-set. *)
let rec raise_to c v =
  let cur = Atomic.get c in
  if v > cur && not (Atomic.compare_and_set c cur v) then raise_to c v

(* Accumulated wall-clock seconds per phase name, in first-seen order.
   Phases are timed on the service's executor thread while snapshot /
   reset run on request threads, so the table sits behind phase_lock. *)
let phase_lock = Mutex.create ()

(* hsp-lint: allow domain-unsafe-global — guarded by phase_lock *)
let phase_order : string list ref = ref []

(* hsp-lint: allow domain-unsafe-global — guarded by phase_lock *)
let phase_seconds : (string, float) Hashtbl.t = Hashtbl.create 8

let reset () =
  Atomic.set gate_apps 0;
  Atomic.set gate_fibres 0;
  Atomic.set dft_apps 0;
  Atomic.set dft_fibres 0;
  Atomic.set basis_maps 0;
  Atomic.set oracle_ops 0;
  Atomic.set measurements 0;
  Atomic.set states_created 0;
  Atomic.set peak_support 0;
  Atomic.set pruned_amps 0;
  Atomic.set peak_dense_alloc 0;
  Atomic.set sampler_preps 0;
  Atomic.set coset_visits 0;
  Atomic.set classical_evals 0;
  Atomic.set symbolic_rewrites 0;
  Atomic.set symbolic_samples 0;
  Atomic.set symbolic_solves 0;
  Atomic.set symbolic_demotions 0;
  Mutex.protect phase_lock (fun () ->
      phase_order := [];
      Hashtbl.reset phase_seconds)

let snapshot () =
  {
    gate_apps = Atomic.get gate_apps;
    gate_fibres = Atomic.get gate_fibres;
    dft_apps = Atomic.get dft_apps;
    dft_fibres = Atomic.get dft_fibres;
    basis_maps = Atomic.get basis_maps;
    oracle_ops = Atomic.get oracle_ops;
    measurements = Atomic.get measurements;
    states_created = Atomic.get states_created;
    peak_support = Atomic.get peak_support;
    pruned_amps = Atomic.get pruned_amps;
    peak_dense_alloc = Atomic.get peak_dense_alloc;
    sampler_preps = Atomic.get sampler_preps;
    coset_visits = Atomic.get coset_visits;
    classical_evals = Atomic.get classical_evals;
    symbolic_rewrites = Atomic.get symbolic_rewrites;
    symbolic_samples = Atomic.get symbolic_samples;
    symbolic_solves = Atomic.get symbolic_solves;
    symbolic_demotions = Atomic.get symbolic_demotions;
    phases =
      Mutex.protect phase_lock (fun () ->
          List.rev_map
            (fun name ->
              (name, Option.value ~default:0.0 (Hashtbl.find_opt phase_seconds name)))
            !phase_order);
  }

let record_gate () = tick gate_apps
let add_gate_fibres n = add gate_fibres n
let add_dft_apps n = add dft_apps n
let add_dft_fibres n = add dft_fibres n
let record_basis_map () = tick basis_maps
let record_oracle () = tick oracle_ops
let record_measurement () = tick measurements
let record_state_created () = tick states_created
let record_support s = raise_to peak_support s
let add_pruned n = if n > 0 then add pruned_amps n
let record_dense_alloc total = raise_to peak_dense_alloc total
let record_sampler_prep () = tick sampler_preps
let add_coset_visits n = add coset_visits n
let add_classical_evals n = add classical_evals n
let record_symbolic_rewrite () = tick symbolic_rewrites
let record_symbolic_sample () = tick symbolic_samples
let record_symbolic_solve () = tick symbolic_solves
let record_symbolic_demotion () = tick symbolic_demotions

(* ------------------------------------------------------------------ *)
(* Structured trace events                                             *)
(* ------------------------------------------------------------------ *)

type tracer = string -> (string * string) list -> unit

let tracer : tracer option Atomic.t = Atomic.make None
let set_tracer t = Atomic.set tracer t
let tracing () = match Atomic.get tracer with None -> false | Some _ -> true
let trace event fields = match Atomic.get tracer with None -> () | Some f -> f event fields

(* ------------------------------------------------------------------ *)
(* Per-phase wall-clock timer                                          *)
(* ------------------------------------------------------------------ *)

(* The trace event, with its formatted seconds field, is built only
   when a tracer is installed: a solver round makes three phase calls,
   and the untraced ones pay the clock reads and the table update. *)
let phase name f =
  let t0 = Unix.gettimeofday () in
  let charge () =
    let dt = Unix.gettimeofday () -. t0 in
    Mutex.protect phase_lock (fun () ->
        match Hashtbl.find_opt phase_seconds name with
        | None ->
            phase_order := name :: !phase_order;
            Hashtbl.replace phase_seconds name dt
        | Some acc -> Hashtbl.replace phase_seconds name (acc +. dt));
    match Atomic.get tracer with
    | None -> ()
    | Some emit -> emit "phase" [ ("name", name); ("seconds", Printf.sprintf "%.6f" dt) ]
  in
  Fun.protect ~finally:charge f

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let counters s =
  [
    ("gate_apps", s.gate_apps);
    ("gate_fibres", s.gate_fibres);
    ("dft_apps", s.dft_apps);
    ("dft_fibres", s.dft_fibres);
    ("basis_maps", s.basis_maps);
    ("oracle_ops", s.oracle_ops);
    ("measurements", s.measurements);
    ("states_created", s.states_created);
    ("peak_support", s.peak_support);
    ("pruned_amps", s.pruned_amps);
    ("peak_dense_alloc", s.peak_dense_alloc);
    ("sampler_preps", s.sampler_preps);
    ("coset_visits", s.coset_visits);
    ("classical_evals", s.classical_evals);
    ("symbolic_rewrites", s.symbolic_rewrites);
    ("symbolic_samples", s.symbolic_samples);
    ("symbolic_solves", s.symbolic_solves);
    ("symbolic_demotions", s.symbolic_demotions);
  ]

let pp fmt s =
  Format.fprintf fmt "@[<v>cost ledger@,";
  Format.fprintf fmt "  gate applications : %d (%d fibres)@," s.gate_apps s.gate_fibres;
  Format.fprintf fmt "  DFT applications  : %d (%d fibres)@," s.dft_apps s.dft_fibres;
  Format.fprintf fmt "  basis-map ops     : %d@," s.basis_maps;
  Format.fprintf fmt "  oracle ops        : %d@," s.oracle_ops;
  Format.fprintf fmt "  measurements      : %d@," s.measurements;
  Format.fprintf fmt "  states created    : %d@," s.states_created;
  Format.fprintf fmt "  peak sparse support : %d@," s.peak_support;
  Format.fprintf fmt "  pruned amplitudes : %d@," s.pruned_amps;
  Format.fprintf fmt "  peak dense alloc  : %d@," s.peak_dense_alloc;
  Format.fprintf fmt "  sampler prep passes : %d@," s.sampler_preps;
  Format.fprintf fmt "  coset members visited : %d@," s.coset_visits;
  Format.fprintf fmt "  classical oracle evals : %d@," s.classical_evals;
  Format.fprintf fmt "  symbolic DFT rewrites : %d@," s.symbolic_rewrites;
  Format.fprintf fmt "  symbolic subgroup draws : %d@," s.symbolic_samples;
  Format.fprintf fmt "  symbolic normal-form solves : %d@," s.symbolic_solves;
  Format.fprintf fmt "  symbolic demotions  : %d@," s.symbolic_demotions;
  List.iter
    (fun (name, sec) -> Format.fprintf fmt "  phase %-11s : %.6fs@," name sec)
    s.phases;
  Format.fprintf fmt "@]"
