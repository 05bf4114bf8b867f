(* Global cost ledger for the simulator.

   One table of atomic integers holds every counter and, per phase, its
   accumulated nanoseconds and call count.  [tick], [add], [raise_to]
   and [phase] are the only writers; [reset], [snapshot], [counters]
   and [pp] iterate the table, so a counter is a constructor, a slot, a
   name and its snapshot field, and no reader lists the counters.

   Per-call counters (gates, DFTs, basis maps, oracle ops, measurements,
   states created) are ticked by the {!State} dispatcher, so a dense and
   a sparse run of the same sampling pipeline report identical values;
   the work/allocation statistics (fibre counts, peak support, pruned
   amplitudes, peak dense allocation) are recorded inside the backends
   and are exactly where the two representations differ. *)

type counter =
  | Gate_apps
  | Gate_fibres
  | Dft_apps
  | Dft_fibres
  | Basis_maps
  | Oracle_ops
  | Measurements
  | States_created
  | Peak_support
  | Pruned_amps
  | Peak_dense_alloc
  | Sampler_preps
  | Coset_visits
  | Classical_evals
  | Symbolic_rewrites
  | Symbolic_samples
  | Symbolic_solves
  | Symbolic_demotions

type phase = Sample_prep | Fourier | Measure | Classical

(* Slots in declaration order; [counter_names] and [phase_names] are
   indexed by the same slot. *)
let counter_slot = function
  | Gate_apps -> 0
  | Gate_fibres -> 1
  | Dft_apps -> 2
  | Dft_fibres -> 3
  | Basis_maps -> 4
  | Oracle_ops -> 5
  | Measurements -> 6
  | States_created -> 7
  | Peak_support -> 8
  | Pruned_amps -> 9
  | Peak_dense_alloc -> 10
  | Sampler_preps -> 11
  | Coset_visits -> 12
  | Classical_evals -> 13
  | Symbolic_rewrites -> 14
  | Symbolic_samples -> 15
  | Symbolic_solves -> 16
  | Symbolic_demotions -> 17

let counter_names =
  [| "gate_apps"; "gate_fibres"; "dft_apps"; "dft_fibres"; "basis_maps"; "oracle_ops";
     "measurements"; "states_created"; "peak_support"; "pruned_amps"; "peak_dense_alloc";
     "sampler_preps"; "coset_visits"; "classical_evals"; "symbolic_rewrites";
     "symbolic_samples"; "symbolic_solves"; "symbolic_demotions" |]

let phase_slot = function Sample_prep -> 0 | Fourier -> 1 | Measure -> 2 | Classical -> 3
let phase_names = [| "sample-prep"; "fourier"; "measure"; "classical" |]
let n_counters = Array.length counter_names

(* The phase in slot [i] keeps its nanoseconds at [n_counters + 2i]
   and its call count right after. *)
let phase_base i = n_counters + (2 * i)

(* Atomic cells: the dense backend's kernels run on a domain pool (see
   {!Parallel}) and the service times phases on its executor thread
   while request threads snapshot, so every cell tolerates concurrent
   access without a lock. *)
let table = Array.init (phase_base (Array.length phase_names)) (fun _ -> Atomic.make 0)

let tick c = ignore (Atomic.fetch_and_add table.(counter_slot c) 1)
let add c n = ignore (Atomic.fetch_and_add table.(counter_slot c) n)

(* Monotone high-water mark via compare-and-set. *)
let rec raise_cell cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then raise_cell cell v

let raise_to c v = raise_cell table.(counter_slot c) v

let reset () = Array.iter (fun cell -> Atomic.set cell 0) table

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
  counts : int array;
}

let snapshot () =
  let v = Array.map Atomic.get table in
  let c k = v.(counter_slot k) in
  {
    gate_apps = c Gate_apps;
    gate_fibres = c Gate_fibres;
    dft_apps = c Dft_apps;
    dft_fibres = c Dft_fibres;
    basis_maps = c Basis_maps;
    oracle_ops = c Oracle_ops;
    measurements = c Measurements;
    states_created = c States_created;
    peak_support = c Peak_support;
    pruned_amps = c Pruned_amps;
    peak_dense_alloc = c Peak_dense_alloc;
    sampler_preps = c Sampler_preps;
    coset_visits = c Coset_visits;
    classical_evals = c Classical_evals;
    symbolic_rewrites = c Symbolic_rewrites;
    symbolic_samples = c Symbolic_samples;
    symbolic_solves = c Symbolic_solves;
    symbolic_demotions = c Symbolic_demotions;
    phases =
      List.filter_map
        (fun i ->
          let ns = v.(phase_base i) and calls = v.(phase_base i + 1) in
          if calls > 0 then Some (phase_names.(i), float_of_int ns /. 1e9) else None)
        (List.init (Array.length phase_names) Fun.id);
    counts = Array.sub v 0 n_counters;
  }

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
   and the untraced ones pay the clock reads, two atomic adds and the
   box of [t0] (2 words) — no closure, no [Fun.protect]. *)
let charge p t0 =
  let dt = Unix.gettimeofday () -. t0 in
  let base = phase_base (phase_slot p) in
  ignore (Atomic.fetch_and_add table.(base) (int_of_float (dt *. 1e9)));
  ignore (Atomic.fetch_and_add table.(base + 1) 1);
  match Atomic.get tracer with
  | None -> ()
  | Some emit ->
      emit "phase" [ ("name", phase_names.(phase_slot p)); ("seconds", Printf.sprintf "%.6f" dt) ]

let phase p f =
  let t0 = Unix.gettimeofday () in
  match f () with
  | v ->
      charge p t0;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      charge p t0;
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let counters s = List.init n_counters (fun i -> (counter_names.(i), s.counts.(i)))

let pp fmt s =
  Format.fprintf fmt "@[<v>cost ledger@,";
  List.iter (fun (name, v) -> Format.fprintf fmt "  %-18s : %d@," name v) (counters s);
  List.iter (fun (name, sec) -> Format.fprintf fmt "  phase %-12s : %.6fs@," name sec) s.phases;
  Format.fprintf fmt "@]"
