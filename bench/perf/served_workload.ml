(* The [served] workload: an in-process [hsp_served] daemon on a Unix
   socket, driven in a closed loop by two client connections (each
   sends its next request only after the previous reply), because
   daemon clients block on replies.

   Traffic is Zipf (s = 1) over 96 planted oracles: 64 sparse, 16
   dense and 16 symbolic, interleaved over the popularity ranks.  98% of
   requests are [sample] with count 2, 2% are [solve].  96 oracles is
   more than the daemon's 64-entry artifact cache holds, so the stream
   mixes cached preps with cold misses and evictions. *)

module B = Quantum.Backend
module Jv = Hsp_service.Jsonv
module Server = Hsp_service.Server
module Service = Hsp_service.Service

let n_oracles = 96
let zipf_s = 1.0
let solve_share = 0.02
let sample_count = 2

(* Length of a segment of the window, between two speed readings:
   short beside the machine's slow and fast stretches. *)
let segment_seconds = 0.5

(* Sparse oracles Z_{a^2} x Z_{b^2} with balanced moduli (a, b): 64
   distinct pairs spread over |A| = (ab)^2 in [2^14.5, 2^16]. *)
let sparse_pairs =
  let all = ref [] in
  for a = 6 to 16 do
    for b = a to 40 do
      if a * b >= 150 && a * b <= 256 then all := (a, b) :: !all
    done
  done;
  let all = Array.of_list (List.sort (fun (a, b) (c, e) -> compare (a * b, a) (c * e, c)) !all) in
  Array.init 64 (fun i -> all.(i * Array.length all / 64))

let dense_dims =
  Array.of_list
    (List.concat_map (fun a -> List.map (fun b -> [| a; b |]) [ 64; 72; 80; 96 ]) [ 32; 40; 48; 64 ])

(* Rank k's oracle.  Ranks cycle sparse x4, dense, symbolic, so each
   kind is spread evenly over popularity; which kind sits where is fixed,
   and the seed only varies instances in ways that keep their cost. *)
let oracle rng k =
  let cycle = k / 6 in
  match k mod 6 with
  | 4 -> Solve_workload.free B.Dense dense_dims.(cycle) rng
  | 5 ->
      let d = [| 2; 3; 4 |].(cycle mod 3) in
      Solve_workload.free B.Symbolic (Array.make (40 + (4 * cycle)) d) rng
  | j ->
      let a, b = sparse_pairs.((4 * cycle) + j) in
      Solve_workload.balanced [| a * a; b * b |] rng

let instance_fields (p : Plant.t) =
  let ints a = Jv.List (Array.to_list (Array.map (fun v -> Jv.Int v) a)) in
  [
    ("dims", ints p.dims);
    ("moduli", ints p.moduli);
    ("backend", Jv.String (B.choice_to_string p.backend));
  ]

type kind = Sample | Solve

let kind_name = function Sample -> "sample" | Solve -> "solve"

type traffic = {
  oracles : Plant.t array;
  cdf : float array;
  seed : int;
  rank_phase : float;
  kind_phase : float;
}

let traffic ~seed =
  let rng = Random.State.make [| seed; 0x0a |] in
  let oracles = Array.init n_oracles (oracle rng) in
  let w = Array.init n_oracles (fun k -> 1. /. (float_of_int (k + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  let rank_phase = Random.State.float rng 1. in
  let kind_phase = Random.State.float rng 1. in
  { oracles; cdf; seed; rank_phase; kind_phase }

(* Request [i] of the stream depends only on the seed and [i].  Its
   popularity rank is the Zipf quantile of the i-th point of a
   golden-ratio sequence, and it is a solve when the i-th point of a
   sqrt 2 sequence falls below [solve_share].  Any stretch of n
   requests then holds each rank's and each kind's share to within a
   few requests, where independent draws would vary by sqrt n: runs of
   different seeds differ in phases, instances and solver seeds, not in
   mix. *)
let request t i =
  let point phase step = Float.rem (phase +. (float_of_int i *. step)) 1. in
  let u = point t.rank_phase ((sqrt 5. -. 1.) /. 2.) in
  let rec rank lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) >= u then rank lo mid else rank (mid + 1) hi
  in
  let p = t.oracles.(rank 0 (n_oracles - 1)) in
  let kind = if point t.kind_phase (sqrt 2. -. 1.) < solve_share then Solve else Sample in
  let seed = Random.State.bits (Random.State.make [| t.seed; i; 0x7e9 |]) in
  let count = match kind with Sample -> [ ("count", Jv.Int sample_count) ] | Solve -> [] in
  ( p,
    kind,
    Jv.Obj
      ((("op", Jv.String (kind_name kind)) :: ("id", Jv.Int i) :: instance_fields p)
      @ count
      @ [ ("seed", Jv.Int seed) ]) )

(* ------------------------------------------------------------------ *)
(* Replies and the correctness gate                                    *)
(* ------------------------------------------------------------------ *)

let ok reply = Option.bind (Jv.member "ok" reply) Jv.to_bool_opt = Some true
let int_field k v = Option.value ~default:0 (Option.bind (Jv.member k v) Jv.to_int_opt)

(* A reply's list of integer tuples ("outcomes", "generators"); a
   non-integer entry becomes -1, which the gate rejects. *)
let tuples key reply =
  Option.value ~default:[] (Option.bind (Jv.member key reply) Jv.to_list_opt)
  |> List.map (fun o ->
         Option.value ~default:[] (Jv.to_list_opt o)
         |> List.map (fun x -> Option.value ~default:(-1) (Jv.to_int_opt x))
         |> Array.of_list)

(* A solve reply is right when the daemon verified it and its
   generators equal the plant's H by canonical HNF. *)
let solve_reply_ok p reply =
  ok reply
  && Option.bind (Jv.member "verified" reply) Jv.to_bool_opt = Some true
  && Plant.solve_ok p (tuples "generators" reply)

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

type daemon = { thread : Thread.t; conns : Unix.file_descr list }

let socket_path () =
  let dir = ".hsp_bench" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat dir (Printf.sprintf "served-%d.sock" (Unix.getpid ()))

(* Small plants outside the traffic's oracle set, one per route. *)
let warm_plants =
  [
    { Plant.dims = [| 64; 64 |]; moduli = [| 8; 8 |]; backend = B.Sparse };
    { Plant.dims = [| 32; 32 |]; moduli = [| 4; 8 |]; backend = B.Dense };
    { Plant.dims = Array.make 32 2; moduli = Array.make 32 2; backend = B.Symbolic };
  ]

(* Start the daemon, open both connections, and have each solve one
   plant per route: the daemon's set-up as its clients see it. *)
let start ~seed =
  let socket_path = socket_path () in
  let service = Service.create ~seed () in
  let thread = Server.run_in_background ~socket_path service in
  let conns = List.init 2 (fun _ -> Server.connect ~socket_path) in
  let warmed =
    List.for_all
      (fun fd ->
        List.for_all
          (fun (p : Plant.t) ->
            solve_reply_ok p
              (Server.request fd
                 (Jv.Obj
                    ((("op", Jv.String "solve") :: instance_fields p) @ [ ("seed", Jv.Int seed) ]))))
          warm_plants)
      conns
  in
  ({ thread; conns }, warmed)

let stop d =
  (match d.conns with
  | fd :: _ -> ignore (Server.request fd (Jv.Obj [ ("op", Jv.String "shutdown") ]))
  | [] -> ());
  List.iter Unix.close d.conns;
  Thread.join d.thread

(* Bring the daemon's artifact cache to the state a long stream leaves
   it in before the window opens: one sample of every oracle, least
   popular first, so the cache ends holding the most popular ones.
   Without it the window's first few hundred requests are cold misses,
   and how many of them a run holds depends on how fast the machine
   was.  True when every outcome passes the gate. *)
let fill d t =
  let fd = List.hd d.conns in
  List.for_all
    (fun k ->
      let p = t.oracles.(k) in
      let reply =
        Server.request fd
          (Jv.Obj
             ((("op", Jv.String "sample") :: instance_fields p)
             @ [ ("count", Jv.Int 1); ("seed", Jv.Int k) ]))
      in
      ok reply && List.for_all (Plant.outcome_ok p) (tuples "outcomes" reply))
    (List.init n_oracles (fun i -> n_oracles - 1 - i))

(* ------------------------------------------------------------------ *)
(* Measured window                                                     *)
(* ------------------------------------------------------------------ *)

type answer = { plant : Plant.t; kind : kind; rtt_ms : float; reply : (Jv.t, string) result }

let cache_stats fd =
  let reply = Server.request fd (Jv.Obj [ ("op", Jv.String "stats") ]) in
  let cache = Option.value ~default:Jv.Null (Jv.member "cache" reply) in
  ( int_field "hits" cache,
    int_field "misses" cache,
    int_field "evictions" cache,
    int_field "bytes" cache,
    int_field "batched_requests" reply )

(* Seconds of executor work the reply's own ledger delta reports. *)
let exec_seconds reply =
  match Jv.member "metrics" reply with
  | Some (Jv.Obj fields) ->
      List.fold_left
        (fun acc (k, v) ->
          if String.starts_with ~prefix:"sec_" k then
            acc +. Option.value ~default:0. (Jv.to_float_opt v)
          else acc)
        0. fields
  | _ -> 0.

(* The correctness gate on one reply: every sampled character trivial
   on the plant's H; a solve's generators equal to H by canonical HNF. *)
let answer_ok a =
  match a.reply with
  | Error _ -> false
  | Ok reply -> (
      match a.kind with
      | Sample ->
          let ys = tuples "outcomes" reply in
          ok reply && List.length ys = sample_count && List.for_all (Plant.outcome_ok a.plant) ys
      | Solve -> solve_reply_ok a.plant reply)

let delivered a =
  match (a.reply, a.kind) with
  | Ok reply, Sample -> List.length (tuples "outcomes" reply)
  | Ok reply, Solve -> int_field "rounds" reply
  | Error _, _ -> 0

let client t ~tr ~root ~next ~deadline fd =
  let answers = ref [] in
  let rec loop () =
    if Unix.gettimeofday () < deadline then begin
      let i = Atomic.fetch_and_add next 1 in
      let plant, kind, req = request t i in
      let t0 = Unix.gettimeofday () in
      let reply =
        Trace.span tr ~parent:root ~name:"request" ~layer:"service" ~op:i (fun _ ->
            match Server.request fd req with r -> Ok r | exception e -> Error (Printexc.to_string e))
      in
      let rtt_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      answers := { plant; kind; rtt_ms; reply } :: !answers;
      loop ()
    end
  in
  loop ();
  !answers

(* Traced-only per-reply layer numbers: executor time from the reply's
   ledger delta, the wait around it, and the codec cost of the reply,
   re-timed by the harness outside the round trip. *)
let account ~tr (lay : Layers.t) a =
  match a.reply with
  | Error _ -> ()
  | Ok reply ->
      Trace.bookkeeping tr (fun () ->
          let exec = exec_seconds reply in
          lay.exec_ms <- (exec *. 1000.) :: lay.exec_ms;
          lay.wait_ms <- (a.rtt_ms -. (exec *. 1000.)) :: lay.wait_ms;
          let t0 = Unix.gettimeofday () in
          let text = Jv.to_string reply in
          let t1 = Unix.gettimeofday () in
          ignore (Jv.of_string text);
          let t2 = Unix.gettimeofday () in
          lay.encode_us <- ((t1 -. t0) *. 1e6) :: lay.encode_us;
          lay.decode_us <- ((t2 -. t1) *. 1e6) :: lay.decode_us;
          lay.reply_bytes <- float_of_int (String.length text) :: lay.reply_bytes;
          let n = delivered a in
          (match a.kind with
          | Sample when n > 0 -> lay.round_us <- (exec *. 1e6 /. float_of_int n) :: lay.round_us
          | Sample -> ()
          | Solve -> lay.rounds <- lay.rounds + n);
          Layers.add_pass lay a.plant ~count:n;
          let hit =
            Option.bind (Option.bind (Jv.member "cache" reply) (Jv.member "hit")) Jv.to_bool_opt
          in
          if hit = Some false && a.plant.backend <> B.Symbolic then
            lay.oracle_evals <- lay.oracle_evals + Array.fold_left ( * ) 1 a.plant.dims)

let measure d t ~tr ~(lay : Layers.t) ~probe ~seconds =
  let traced = Option.is_some tr in
  let control = List.hd d.conns in
  let s0 = if traced then Some (cache_stats control) else None in
  if traced then lay.before <- Some (Quantum.Metrics.snapshot ());
  let next = Atomic.make 0 in
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. seconds in
  let busy = ref 0. and scaled = ref [] and speeds = ref [] in
  let read_speed () =
    let f = Speed.factor () in
    speeds := f :: !speeds;
    f
  in
  (* Segments of [segment_seconds]; between two, both clients are idle
     while the harness reads the speed and calls [probe ()].  A
     segment's time and its requests' latencies are scaled by the mean
     of the readings on either side. *)
  Trace.span tr ~parent:0 ~name:"run" ~layer:"harness" ~op:0 (fun root ->
      let rec segment before =
        let started = Unix.gettimeofday () in
        let until = Float.min deadline (started +. segment_seconds) in
        let results = Array.make (List.length d.conns) [] in
        List.mapi
          (fun k fd ->
            Thread.create (fun () -> results.(k) <- client t ~tr ~root ~next ~deadline:until fd) ())
          d.conns
        |> List.iter Thread.join;
        let seconds = Unix.gettimeofday () -. started in
        let after = read_speed () in
        let scale = (before +. after) /. 2. in
        busy := !busy +. (seconds *. scale);
        Array.iter
          (List.iter (fun a -> scaled := (a, a.rtt_ms *. scale) :: !scaled))
          results;
        if Unix.gettimeofday () < deadline then begin
          probe ();
          segment (read_speed ())
        end
      in
      probe ();
      segment (read_speed ()));
  let answers = List.map fst !scaled in
  let wall = Unix.gettimeofday () -. t_start in
  if traced then begin
    lay.after <- Some (Quantum.Metrics.snapshot ());
    let h1, m1, e1, bytes, b1 = cache_stats control in
    Option.iter
      (fun (h0, m0, e0, _, b0) ->
        lay.hits <- h1 - h0;
        lay.misses <- m1 - m0;
        lay.evictions <- e1 - e0;
        lay.cache_bytes <- bytes;
        lay.batched <- b1 - b0)
      s0;
    List.iter (account ~tr lay) answers
  end;
  lay.ops <- List.length answers;
  let failed =
    List.fold_left
      (fun n a ->
        if answer_ok a then n
        else begin
          Printf.eprintf "hsp_bench: wrong or failed %s reply on %s\n%!" (kind_name a.kind)
            (Plant.label a.plant);
          n + 1
        end)
      0 answers
  in
  {
    Window.wall;
    attempted = List.length answers;
    failed;
    busy = !busy;
    (* outcomes returned by [sample] replies; a solve's rounds stay in
       the daemon, and how many there are depends on which oracle each
       of the few solves hits *)
    delivered =
      List.fold_left (fun n a -> match a.kind with Sample -> n + delivered a | Solve -> n) 0 answers;
    latency_ms = Array.of_list (List.map snd !scaled);
    groups =
      Window.group
        (List.map
           (fun (a, ms) -> (kind_name a.kind ^ "." ^ B.choice_to_string a.plant.backend, ms))
           !scaled);
    speeds = Array.of_list !speeds;
  }
