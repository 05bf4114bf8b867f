(* What one measured window of a workload produced. *)

type t = {
  wall : float;  (* seconds the window lasted, pauses included *)
  attempted : int;
  failed : int;  (* raised, replied ok:false, or failed the correctness gate *)
  busy : float;
      (* seconds at reference speed (Speed) spent on ops: the solves
         themselves (solve-* ), the load segments (served); pauses and
         the harness's own work between ops excluded *)
  delivered : int;  (* Fourier-sampling outcomes *)
  latency_ms : float array;  (* one per completed op, at reference speed *)
  groups : (string * float array) list;
      (* the same latencies by shape (solve-* ) or request kind (served) *)
  speeds : float array;  (* every Speed.factor reading taken *)
}

(* Seconds between the cold set-ups an untraced run times: about ten
   per run, spread over it. *)
let slice = 2.0

(* [n] per busy second. *)
let rate w n = float_of_int n /. Float.max 1e-9 w.busy

let group pairs =
  List.sort_uniq compare (List.map fst pairs)
  |> List.map (fun k ->
         (k, Array.of_list (List.filter_map (fun (k', v) -> if k = k' then Some v else None) pairs)))
