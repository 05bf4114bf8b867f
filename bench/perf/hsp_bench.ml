(* hsp_bench — the repository's benchmark.

     hsp_bench run --workload W --seed S [--seconds N] [--trace 0|1] [--out F]
     hsp_bench setup --workload W --seed S
     hsp_bench smoke [--bench BENCHMARK.json]
     hsp_bench diff A B [--bench BENCHMARK.json]
     hsp_bench calibrate --dir D [--seeds 1,2,3,4,5] [--seconds N]
     hsp_bench spread D [--bench BENCHMARK.json]

   [run] measures one workload in this process for N seconds and prints
   "<workload> <metric> <value> <unit>" lines, then one JSON result
   object as the last line of standard output.  Tracing off gives the
   end-to-end metrics; tracing on gives the per-layer metrics and a
   Chrome trace file.  It exits 1 on any wrong answer.  See README.md
   for workloads, metrics and commands. *)

open Cmdliner
module Jv = Hsp_service.Jsonv

let workloads = [ "solve-dense"; "solve-sparse"; "solve-symbolic"; "served" ]

(* Settings that change the program under test; the benchmark measures
   the plain single-threaded defaults only. *)
let pinned = [ "HSP_JOBS"; "HSP_BACKEND"; "HSP_SCHED"; "HSP_FUSE" ]

(* Pins the process to its lowest allowed CPU and returns it (-1 if it
   cannot); see pin_stubs.c for why. *)
external pin_lowest_cpu : unit -> int = "hsp_bench_pin_lowest_cpu"

let now = Unix.gettimeofday

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; rest ] ->
              Scanf.sscanf_opt (String.trim rest) "%d kB" (fun kb -> float_of_int kb /. 1024.)
          | _ -> None)
        (String.split_on_char '\n' text)
      |> Option.value ~default:Float.nan
  | exception Sys_error _ -> Float.nan

(* A workload's set-up: everything before its first measured answer.
   True when the warm-up answers it checks are right. *)
let setup ~workload ~seed =
  match Solve_workload.spec workload with
  | Some spec -> Solve_workload.setup spec ~seed
  | None ->
      ignore (Served_workload.traffic ~seed);
      let daemon, ok = Served_workload.start ~seed in
      Served_workload.stop daemon;
      ok

(* Run this executable with [args] (stdout discarded) and wait for it. *)
let run_self args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let rec wait pid =
    try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
  in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      wait
        (Unix.create_process Sys.executable_name
           (Array.of_list (Sys.executable_name :: args))
           Unix.stdin devnull Unix.stderr))

(* One cold set-up: a fresh process of this executable runs [setup] and
   exits.  Its wall time from spawn to exit, at reference speed (Speed),
   is one [setup_s] sample, so work a program defers to its first call
   or caches per process is paid again by every sample. *)
let cold_setup ~workload ~seed =
  let before = Speed.factor () in
  let t0 = now () in
  let status = run_self [ "setup"; "--workload"; workload; "--seed"; string_of_int seed ] in
  let dt = now () -. t0 in
  (dt *. (before +. Speed.factor ()) /. 2., status = Unix.WEXITED 0)

(* Measure one workload and assemble its run record.  [tiny] (smoke)
   replaces each solve workload's shapes with its small warm-up plant.

   The untraced run times a cold set-up every [Window.slice] seconds,
   between passes or [served] segments while the load is paused, so the
   [setup_s] samples are spread over the run like every other metric's
   samples. *)
let evaluate ?(tiny = false) ~workload ~seed ~seconds ~traced () =
  let tr = if traced then Some (Trace.create ()) else None in
  let lay = Layers.create () in
  let setups = ref [] and last = ref Float.neg_infinity in
  let probe () =
    if (not traced) && now () -. !last >= Window.slice then begin
      last := now ();
      setups := cold_setup ~workload ~seed :: !setups
    end
  in
  let (w : Window.t), setup_ok =
    match Solve_workload.spec workload with
    | Some spec ->
        let spec = if tiny then { spec with shapes = [ ("warm", fun _ -> spec.warm) ] } else spec in
        let ok = Solve_workload.setup spec ~seed in
        (Solve_workload.measure spec ~tr ~lay ~probe ~seed ~seconds, ok)
    | None ->
        let traffic = Served_workload.traffic ~seed in
        let daemon, ok = Served_workload.start ~seed in
        Fun.protect
          ~finally:(fun () -> Served_workload.stop daemon)
          (fun () ->
            let filled = Served_workload.fill daemon traffic in
            (Served_workload.measure daemon traffic ~tr ~lay ~probe ~seconds, ok && filled))
  in
  let setup_ok = setup_ok && List.for_all snd !setups in
  let setup_s = Stats.median (Array.of_list (List.map fst !setups)) in
  let ops = Array.length w.latency_ms in
  let values, self_times =
    match tr with
    | None ->
        ( [
            ("setup_s", setup_s);
            ("ops_per_s", Window.rate w ops);
            ("samples_per_s", Window.rate w w.delivered);
            ("latency_ms.p50", Stats.percentile w.latency_ms 0.50);
            ("latency_ms.p90", Stats.percentile w.latency_ms 0.90);
            ("peak_rss_mb", peak_rss_mb ());
          ],
          [] )
    | Some t ->
        if lay.round_us = [] then
          lay.round_us <- List.map (fun s -> s *. 1e6) (Array.to_list (Trace.durations t ~name:"draw"));
        lay.build_s <- Array.fold_left ( +. ) 0. (Trace.durations t ~name:"build");
        lay.coverage <- Trace.coverage t;
        lay.overhead_pct <-
          100. *. Trace.overhead_seconds t ~per_span:(Trace.span_cost ()) /. Float.max 1e-9 w.wall;
        ( Layers.values lay,
          List.map (fun (layer, s) -> ("self_s." ^ layer, s)) (Trace.self_times t) )
  in
  let failed = w.failed + if setup_ok then 0 else 1 in
  let r =
    {
      Report.workload;
      seed;
      seconds;
      traced;
      attempted = max 1 w.attempted;
      failed;
      values;
      extra =
        [
          ("ops", float_of_int ops);
          ("setups", float_of_int (List.length !setups));
          ("speed.p50", Stats.median w.speeds);
          ("wall_s", w.wall);
          ("fail_ratio", float_of_int failed /. float_of_int (max 1 w.attempted));
        ]
        @ List.concat_map
            (fun (g, l) ->
              [ ("n." ^ g, float_of_int (Array.length l)); ("latency_ms.p50." ^ g, Stats.percentile l 0.5) ])
            w.groups
        @ self_times;
    }
  in
  (r, tr)

let run_cmd_impl workload seed seconds traced out =
  match List.find_opt (fun v -> Sys.getenv_opt v <> None) pinned with
  | Some v ->
      Printf.eprintf "hsp_bench: %s is set; the benchmark measures the defaults only\n" v;
      2
  | None ->
      let cpu = pin_lowest_cpu () in
      let r, tr = evaluate ~workload ~seed ~seconds:(float_of_int seconds) ~traced () in
      let r = { r with extra = r.extra @ [ ("cpu", float_of_int cpu) ] } in
      Report.print_lines stdout r;
      Option.iter
        (fun t ->
          (try Unix.mkdir ".hsp_bench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          Out_channel.with_open_text
            (Filename.concat ".hsp_bench" (Printf.sprintf "%s-s%d.trace.json" workload seed))
            (fun oc -> output_string oc (Jv.to_string (Trace.to_chrome t))))
        tr;
      Option.iter
        (fun f ->
          Out_channel.with_open_text f (fun oc ->
              output_string oc (Jv.to_string (Report.to_json r));
              output_char oc '\n'))
        out;
      List.iter (Printf.eprintf "hsp_bench: metric %s missing or not finite\n") (Report.missing r);
      print_endline (Report.result_line r);
      if Report.correct r then 0 else 1

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)
(* ------------------------------------------------------------------ *)

(* The metric entries of one [BENCHMARK.json] section. *)
let entries bench section =
  match Jv.member section bench with Some (Jv.List items) -> items | _ -> []

(* Metric names and units [BENCHMARK.json] declares, by section. *)
let declared bench section =
  List.filter_map
    (fun m ->
      match (Jv.member "name" m, Jv.member "unit" m) with
      | Some (Jv.String n), Some (Jv.String u) -> Some (n, u)
      | _ -> None)
    (entries bench section)

let read_json file =
  match In_channel.with_open_text file In_channel.input_all with
  | text -> Jv.of_string text
  | exception Sys_error msg -> Error msg

let smoke_impl bench =
  let failures = ref [] in
  let expect what ok = if not ok then failures := what :: !failures in
  (* the correctness gate must fail on a plant with one wrong modulus *)
  let p = { Plant.dims = [| 12; 8 |]; moduli = [| 3; 4 |]; backend = Quantum.Backend.Sparse } in
  let wrong = Option.get (Plant.with_wrong_modulus p) in
  let gens, _ =
    Solve_workload.solve ~tr:None ~lay:(Layers.create ()) ~root:0 ~op:0 p ~rng_seed:7
  in
  expect "gate accepts a right solve" (Plant.solve_ok p gens);
  expect "gate rejects a solve against a wrong modulus" (not (Plant.solve_ok wrong gens));
  let draw =
    Quantum.Coset_state.sampler_with_subgroup ~backend:Quantum.Backend.Symbolic ~dims:p.dims
      ~subgroup:(Plant.gens p) ~queries:(Quantum.Query.create ()) ()
  in
  let rng = Random.State.make [| 7 |] in
  let ys = List.init 32 (fun _ -> draw rng) in
  expect "gate accepts right outcomes" (List.for_all (Plant.outcome_ok p) ys);
  expect "gate rejects outcomes against a wrong modulus"
    (not (List.for_all (Plant.outcome_ok wrong) ys));
  (* every workload on tiny shapes, untraced and traced, through the
     same assembly as [run]: no wrong answer, no missing metric *)
  List.iter
    (fun workload ->
      List.iter
        (fun traced ->
          let seconds = if workload = "served" then 0.3 else 0.05 in
          let r, _ = evaluate ~tiny:true ~workload ~seed:1 ~seconds ~traced () in
          let mode = if traced then "traced" else "untraced" in
          expect (Printf.sprintf "%s %s: some op ran" workload mode) (List.assoc "ops" r.extra > 0.);
          expect (Printf.sprintf "%s %s: no wrong answer" workload mode) (r.failed = 0);
          List.iter
            (fun name -> expect (Printf.sprintf "%s %s: metric %s" workload mode name) false)
            (Report.missing r))
        [ false; true ])
    workloads;
  (* the code's catalogue must be exactly what BENCHMARK.json declares *)
  (match Option.map read_json bench with
  | None -> ()
  | Some (Error msg) -> expect ("BENCHMARK.json readable: " ^ msg) false
  | Some (Ok b) ->
      let names defs = List.sort compare (List.map (fun (m : Report.def) -> (m.name, m.unit)) defs) in
      expect "end_to_end matches the harness"
        (List.sort compare (declared b "end_to_end") = names Report.e2e);
      expect "per_layer matches the harness"
        (List.sort compare (declared b "per_layer") = names Report.per_layer);
      expect "layer values cover per_layer"
        (List.map fst (Layers.values (Layers.create ()))
        = List.map (fun (m : Report.def) -> m.name) Report.per_layer));
  match !failures with
  | [] ->
      print_endline "hsp_bench smoke: ok";
      0
  | fs ->
      List.iter (Printf.eprintf "hsp_bench smoke: FAILED %s\n") (List.rev fs);
      1

(* ------------------------------------------------------------------ *)
(* diff / spread / calibrate                                           *)
(* ------------------------------------------------------------------ *)

(* Untraced runs from a directory of run files or a single run file. *)
let load_runs path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.filter_map
    (fun f ->
      match Result.to_option (read_json f) |> Fun.flip Option.bind Report.of_json with
      | Some r when not r.Report.traced -> Some r
      | Some _ -> None
      | None ->
          Printf.eprintf "hsp_bench: skipping %s (not a run file)\n" f;
          None)
    files

let bounds bench =
  match Option.map read_json bench with
  | Some (Ok b) ->
      List.filter_map
        (fun m ->
          match (Jv.member "name" m, Option.bind (Jv.member "bound" m) Jv.to_float_opt) with
          | Some (Jv.String n), Some x -> Some (n, x)
          | _ -> None)
        (entries b "end_to_end")
  | _ -> []

let series runs workload name =
  List.filter_map
    (fun r ->
      if String.equal r.Report.workload workload then List.assoc_opt name r.Report.values
      else None)
    runs
  |> Array.of_list

let present runs = List.filter (fun w -> List.exists (fun r -> r.Report.workload = w) runs) workloads

(* One verdict per workload x metric: a spread wider than the bound
   is unresolved unless every new run beats every old one; a median
   worse by more than the bound is worse; better needs 9 in 10 cross
   pairs won and a gain beyond the old runs' own quartile spread. *)
let verdict (m : Report.def) ~bound a b =
  let worse_by x y = match m.better with Report.Lower -> (y -. x) /. Float.abs x | Higher -> (x -. y) /. Float.abs x in
  let ma = Stats.median a and mb = Stats.median b in
  let loss = worse_by ma mb in
  let beats y x = worse_by x y < 0. in
  let pairs = Array.length a * Array.length b in
  let wins =
    Array.fold_left (fun n x -> n + Array.fold_left (fun n y -> if beats y x then n + 1 else n) 0 b) 0 a
  in
  let all_better = wins = pairs in
  let sa = Stats.spread a and sb = Stats.spread b in
  if Float.max sa sb > bound then (if all_better then "better" else "unresolved")
  else if loss > bound then "worse"
  else if -.loss > sa && float_of_int wins >= 0.9 *. float_of_int pairs then "better"
  else "unchanged"

let diff_impl a b bench =
  let ra = load_runs a and rb = load_runs b in
  let bounds = bounds bench in
  let worse = ref 0 in
  Printf.printf "%-15s %-15s %28s %28s %8s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "delta" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m : Report.def) ->
          let xa = series ra w m.name and xb = series rb w m.name in
          if Array.length xa > 0 && Array.length xb > 0 then begin
            let bound = Option.value ~default:0.1 (List.assoc_opt m.name bounds) in
            let cell x =
              let q1, q3 = Stats.quartiles x in
              Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median x) q1 q3
            in
            let v = verdict m ~bound xa xb in
            if v = "worse" then incr worse;
            Printf.printf "%-15s %-15s %28s %28s %+7.2f%% %5.1f%%  %s\n" w m.name (cell xa)
              (cell xb)
              (100. *. (Stats.median xb -. Stats.median xa) /. Float.abs (Stats.median xa))
              (100. *. bound) v
          end)
        Report.e2e)
    (present rb);
  if !worse > 0 then 1 else 0

let spread_impl dir bench =
  let runs = load_runs dir in
  let bounds = bounds bench in
  Printf.printf "%-15s %-15s %3s %12s %12s %12s %8s %7s\n" "workload" "metric" "n" "median" "q1" "q3"
    "spread" "bound";
  List.iter
    (fun w ->
      List.iter
        (fun (m : Report.def) ->
          let x = series runs w m.name in
          if Array.length x > 0 then begin
            let q1, q3 = Stats.quartiles x in
            let bound = List.assoc_opt m.name bounds in
            let s = Stats.spread x in
            Printf.printf "%-15s %-15s %3d %12.5g %12.5g %12.5g %7.2f%% %6s%s\n" w m.name
              (Array.length x) (Stats.median x) q1 q3 (100. *. s)
              (match bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "-")
              (match bound with Some b when s > b /. 3. -> "  > bound/3" | _ -> "")
          end)
        Report.e2e)
    (present runs);
  0

(* Every workload once per seed, each in a fresh process of this
   executable (peak RSS is per process), run files into [dir]. *)
let calibrate_impl dir seeds seconds bench =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let failed = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun w ->
          let out = Filename.concat dir (Printf.sprintf "%s-s%d.json" w seed) in
          match
            run_self
              [ "run"; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
                string_of_int seconds; "--trace"; "0"; "--out"; out ]
          with
          | Unix.WEXITED 0 -> Printf.printf "%s seed %d: ok\n%!" w seed
          | _ ->
              incr failed;
              Printf.printf "%s seed %d: FAILED\n%!" w seed)
        workloads)
    seeds;
  ignore (spread_impl dir bench);
  if !failed > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let bench_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "bench" ] ~docv:"FILE" ~doc:"BENCHMARK.json holding metric names and bounds.")

let workload_arg =
  Arg.(
    required
    & opt (some (enum (List.map (fun w -> (w, w)) workloads))) None
    & info [ "workload" ] ~docv:"W" ~doc:"Workload.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed of the workload's inputs.")

let run_cmd =
  let seconds =
    Arg.(value & opt int 20 & info [ "seconds" ] ~doc:"Length of the measured window.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1 reports per-layer metrics and writes .hsp_bench/W-sS.trace.json.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write the run as JSON.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure one workload.")
    Term.(const run_cmd_impl $ workload_arg $ seed_arg $ seconds $ trace $ out)

let setup_cmd =
  Cmd.v
    (Cmd.info "setup" ~doc:"Set one workload up once and exit; run times this as a cold set-up.")
    Term.(const (fun workload seed -> if setup ~workload ~seed then 0 else 1) $ workload_arg $ seed_arg)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke" ~doc:"Tiny shapes, every metric, the gate's fault self-test.")
    Term.(const smoke_impl $ bench_arg)

let diff_cmd =
  let pos i doc = Arg.(required & pos i (some string) None & info [] ~docv:"RUNS" ~doc) in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare two sets of runs per workload and end-to-end metric.")
    Term.(
      const diff_impl
      $ pos 0 "Old runs: a directory of run files, or one run file."
      $ pos 1 "New runs, likewise."
      $ bench_arg)

let spread_cmd =
  Cmd.v
    (Cmd.info "spread" ~doc:"Median, quartiles and spread per workload and end-to-end metric.")
    Term.(
      const spread_impl
      $ Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR" ~doc:"Directory of run files.")
      $ bench_arg)

let calibrate_cmd =
  let dir =
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let seeds =
    Arg.(value & opt (list int) [ 1; 2; 3; 4; 5 ] & info [ "seeds" ] ~doc:"Seeds, one set each.")
  in
  let seconds = Arg.(value & opt int 20 & info [ "seconds" ] ~doc:"Window of each run.") in
  Cmd.v
    (Cmd.info "calibrate" ~doc:"Untraced runs of every workload per seed, then their spread.")
    Term.(const calibrate_impl $ dir $ seeds $ seconds $ bench_arg)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "hsp_bench" ~doc:"The repository's benchmark.")
          [ run_cmd; setup_cmd; smoke_cmd; diff_cmd; spread_cmd; calibrate_cmd ]))
