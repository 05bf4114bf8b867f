(* Metric catalogue, run records and their three renderings: one
   "<workload> <metric> <value> <unit>" line per metric, a typed JSON
   run file ([--out]), and the one-line result object that closes
   standard output, which a caller of [run] reads. *)

module Jv = Hsp_service.Jsonv

type better = Higher | Lower
type def = { name : string; unit : string; better : better }

let d name unit better = { name; unit; better }

(* End to end, measured with tracing off.  Every workload reports every
   metric: an op is one solve on the solve-* workloads and one request
   on [served]. *)
let e2e =
  [
    d "setup_s" "s" Lower;
    d "ops_per_s" "1/s" Higher;
    d "samples_per_s" "1/s" Higher;
    d "latency_ms.p50" "ms" Lower;
    d "latency_ms.p90" "ms" Lower;
    d "peak_rss_mb" "MB" Lower;
  ]

(* Per layer, from the separate traced run.  Totals over a
   time-bounded window grow with however many ops fit in it, so
   extensive quantities are reported per op. *)
let per_layer =
  [
    d "qft.s" "s/op" Lower;
    d "qft.dft_fibres" "count/op" Lower;
    d "qft.gate_fibres" "count/op" Lower;
    d "qft.bytes_computed" "B/op" Lower;
    d "qft.flop_computed" "flop/op" Lower;
    d "state.measure_s" "s/op" Lower;
    d "state.measurements" "count/op" Lower;
    d "state.peak_dense_alloc" "amps" Lower;
    d "coset_state.prep_s" "s/op" Lower;
    d "coset_state.build_s" "s/op" Lower;
    d "coset_state.preps" "count/op" Lower;
    d "coset_state.coset_visits" "count/op" Lower;
    d "coset_state.round_us.p50" "us" Lower;
    d "oracle.evals" "count/op" Lower;
    d "abelian_hsp.classical_s" "s/op" Lower;
    d "abelian_hsp.rounds" "count/op" Lower;
    d "abelian_hsp.batches" "count/op" Lower;
    d "backend_symbolic.rewrites" "count/op" Lower;
    d "backend_symbolic.samples" "count/op" Lower;
    d "backend_symbolic.solves" "count/op" Lower;
    d "backend_symbolic.demotions" "count/op" Lower;
    d "service.exec_ms.p50" "ms" Lower;
    d "service.wait_ms.p50" "ms" Lower;
    d "service.batched_requests" "count/op" Higher;
    d "cache.hit_ratio" "ratio" Higher;
    d "cache.misses" "count/op" Lower;
    d "cache.evictions" "count/op" Lower;
    d "cache.bytes" "B" Lower;
    d "protocol.encode_us.p50" "us" Lower;
    d "protocol.decode_us.p50" "us" Lower;
    d "protocol.reply_bytes.p50" "B" Lower;
    d "trace.coverage" "ratio" Higher;
    d "trace.overhead_pct" "%" Lower;
  ]

let defs ~traced = if traced then per_layer else e2e

type run = {
  workload : string;
  seed : int;
  seconds : float;  (* the requested window *)
  traced : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (* exactly [defs ~traced], in order *)
  extra : (string * float) list;  (* counts and self times, not gated *)
}

let finite x = Float.is_finite x

(* The names [defs] promises but [r] lacks or holds as nan/inf. *)
let missing r =
  List.filter_map
    (fun m ->
      match List.assoc_opt m.name r.values with
      | Some v when finite v -> None
      | _ -> Some m.name)
    (defs ~traced:r.traced)

let correct r = r.failed = 0 && missing r = []

let print_lines oc r =
  let line name value unit = Printf.fprintf oc "%s %s %.6g %s\n" r.workload name value unit in
  List.iter
    (fun m ->
      line m.name (Option.value ~default:Float.nan (List.assoc_opt m.name r.values)) m.unit)
    (defs ~traced:r.traced);
  List.iter (fun (k, v) -> line k v "-") r.extra

let num x = if finite x then Jv.Float x else Jv.Null

let metric_obj r =
  Jv.Obj
    (List.map
       (fun m ->
         let v = Option.value ~default:Float.nan (List.assoc_opt m.name r.values) in
         (m.name, Jv.Obj [ ("value", num v); ("unit", Jv.String m.unit) ]))
       (defs ~traced:r.traced))

(* The last line of [run]'s standard output. *)
let result_line r =
  Jv.to_string
    (Jv.Obj
       [
         ("correct", Jv.Bool (correct r));
         ("attempted", Jv.Int r.attempted);
         ("failed", Jv.Int r.failed);
         ("metrics", metric_obj r);
       ])

let to_json r =
  Jv.Obj
    [
      ("workload", Jv.String r.workload);
      ("seed", Jv.Int r.seed);
      ("seconds", Jv.Float r.seconds);
      ("trace", Jv.Bool r.traced);
      ("correct", Jv.Bool (correct r));
      ("attempted", Jv.Int r.attempted);
      ("failed", Jv.Int r.failed);
      ("metrics", metric_obj r);
      ("extra", Jv.Obj (List.map (fun (k, v) -> (k, num v)) r.extra));
    ]

let of_json v =
  let ( let* ) = Option.bind in
  let field k conv = Option.bind (Jv.member k v) conv in
  let* workload = field "workload" Jv.to_string_opt in
  let* seed = field "seed" Jv.to_int_opt in
  let* seconds = field "seconds" Jv.to_float_opt in
  let* traced = field "trace" Jv.to_bool_opt in
  let* attempted = field "attempted" Jv.to_int_opt in
  let* failed = field "failed" Jv.to_int_opt in
  let pairs k value =
    match Jv.member k v with
    | Some (Jv.Obj fs) -> List.filter_map (fun (name, x) -> Option.map (fun f -> (name, f)) (value x)) fs
    | _ -> []
  in
  let values = pairs "metrics" (fun x -> Option.bind (Jv.member "value" x) Jv.to_float_opt) in
  let extra = pairs "extra" Jv.to_float_opt in
  Some { workload; seed; seconds; traced; attempted; failed; values; extra }
