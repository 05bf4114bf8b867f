(* The solver workloads: Theorem 3's Abelian HSP solver
   ([Hsp.Abelian_hsp.solve_dims]) driven end to end on one backend each,
   one planted instance per solve.  An op is one solve: sampler set-up
   (the O(|A|) oracle expansion on dense and sparse, subgroup
   canonicalisation on symbolic), every Fourier-sampling round, and the
   classical post-processing. *)

module B = Quantum.Backend
module CS = Quantum.Coset_state

let divisors d = List.filter (fun m -> d mod m = 0) (List.init d (fun i -> i + 1))
let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* Dense and symbolic rounds cost the same whatever H is, so the seed
   picks every modulus freely among the divisors of its dimension. *)
let free backend dims rng =
  { Plant.dims; moduli = Array.map (fun d -> pick rng (divisors d)) dims; backend }

(* A sparse round transforms only populated fibres, so its cost depends
   on H.  These plants are balanced (m_i^2 = d_i): every wire holds
   sqrt(d_i) values before and after its transform, so each coordinate
   order transforms the same fibres.  The seed picks the order, which
   changes the instance and not its cost. *)
let balanced dims rng =
  let r = Array.length dims in
  let order = Array.init r Fun.id in
  for i = r - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let dims = Array.map (fun k -> dims.(k)) order in
  let root d = int_of_float (Float.round (sqrt (float_of_int d))) in
  { Plant.dims; moduli = Array.map root dims; backend = B.Sparse }

let rep d k = Array.make k d

(* One pass of a workload solves one instance of each named shape, in
   order.  Whole passes only, so every run weighs its shapes equally,
   and an odd number of shapes, so the median solve falls inside some
   shape's times rather than on the gap between two.  Passes are short
   enough that a 20 s window holds at least 100 solves, so at least ten
   lie past the 90th percentile.  The warm-up plant is solved during
   set-up, never in the window. *)
type spec = { shapes : (string * (Random.State.t -> Plant.t)) list; warm : Plant.t }

let spec = function
  | "solve-dense" ->
      Some
        {
          (* radix-2 FFT, Bluestein on both wires, and the d <= 4
             gate kernel at d = 3 and d = 4, on planes of 2^12 to 2^13
             amplitudes.  The Bluestein shape costs over twice either
             other, so the 90th percentile lies inside its solves. *)
          shapes =
            [
              ("Z_64xZ_128", free B.Dense [| 64; 128 |]);
              ("Z_36xZ_120", free B.Dense [| 36; 120 |]);
              ("Z_3^4xZ_4^3", free B.Dense (Array.append (rep 3 4) (rep 4 3)));
            ];
          warm = { Plant.dims = [| 64; 64 |]; moduli = [| 4; 8 |]; backend = B.Dense };
        }
  | "solve-sparse" ->
      Some
        {
          shapes =
            [
              ("Z_1024xZ_256", balanced [| 1024; 256 |]);
              ("Z_196xZ_100", balanced [| 196; 100 |]);
              ("Z_4^9", balanced (rep 4 9));
            ];
          warm = { Plant.dims = [| 256; 64 |]; moduli = [| 16; 8 |]; backend = B.Sparse };
        }
  | "solve-symbolic" ->
      Some
        {
          shapes =
            [
              ("Z_2^64", free B.Symbolic (rep 2 64));
              ("Z_4^60", free B.Symbolic (rep 4 60));
              ("Z_3^80", free B.Symbolic (rep 3 80));
              ("Z_2^96", free B.Symbolic (rep 2 96));
              ("Z_2^128", free B.Symbolic (rep 2 128));
            ];
          warm = { Plant.dims = rep 2 48; moduli = rep 2 48; backend = B.Symbolic };
        }
  | _ -> None

(* One solve.  Traced, it opens a "solve" span whose children are the
   artifact build, the symbolic sampler set-up and every draw; the
   solve span's self time is the classical post-processing. *)
let solve ~tr ~(lay : Layers.t) ~root ~op (p : Plant.t) ~rng_seed =
  Trace.span tr ~parent:root ~name:"solve" ~layer:"abelian_hsp" ~op @@ fun sid ->
  let traced = Option.is_some tr in
  let rng = Random.State.make [| rng_seed |] in
  let queries = Quantum.Query.create () in
  let f =
    if traced then (fun x ->
      lay.oracle_evals <- lay.oracle_evals + 1;
      Plant.oracle p x)
    else Plant.oracle p
  in
  let draw =
    match p.backend with
    | B.Symbolic ->
        Trace.span tr ~parent:sid ~name:"sampler" ~layer:"backend_symbolic" ~op (fun _ ->
            CS.sampler_with_subgroup ~backend:B.Symbolic ~dims:p.dims ~subgroup:(Plant.gens p)
              ~queries ())
    | backend ->
        let prep = CS.prep ~backend ~dims:p.dims ~f () in
        Trace.span tr ~parent:sid ~name:"build" ~layer:"coset_state" ~op (fun _ ->
            CS.prep_force prep);
        CS.sampler_of_prep prep ~queries ()
  in
  let draws = ref 0 and seen = ref (-1) and batches = ref 0 in
  let draw, verify =
    if not traced then (draw, Plant.in_h p)
    else
      ( (fun rng ->
          incr draws;
          Trace.span tr ~parent:sid ~name:"draw" ~layer:"coset_state" ~op (fun _ -> draw rng)),
        (* solve_dims verifies candidate generators once per batch of
           draws, so a verify call after new draws starts a batch *)
        fun x ->
          if !draws <> !seen then begin
            incr batches;
            seen := !draws
          end;
          Plant.in_h p x )
  in
  let gens, outcome =
    Hsp.Abelian_hsp.solve_dims rng ~draw ~dims:p.dims ~f ~quantum:queries ~verify ()
  in
  let rounds = outcome.Hsp.Abelian_hsp.rounds in
  if traced then begin
    lay.rounds <- lay.rounds + rounds;
    lay.batches <- lay.batches + max 1 !batches;
    Layers.add_pass lay p ~count:rounds
  end;
  (gens, rounds)

(* Set-up before the first answer: one solve of a small plant on the
   workload's backend (lazy tables, heap growth), checked like every
   other answer. *)
let setup spec ~seed =
  let gens, _ =
    solve ~tr:None ~lay:(Layers.create ()) ~root:0 ~op:0 spec.warm ~rng_seed:seed
  in
  Plant.solve_ok spec.warm gens

(* The measured window: whole passes until [seconds] have elapsed, with
   [probe ()] called between passes.  Each solve is timed between two
   speed readings and scaled by their mean.  Each answer is checked as
   soon as its time is taken, outside it, and then dropped, so the
   harness holds no answers that would swell the process's peak RSS
   with the number of solves. *)
let measure spec ~tr ~(lay : Layers.t) ~probe ~seed ~seconds =
  let wl = Random.State.make [| seed; 0x501e |] in
  let attempted = ref 0 and failed = ref 0 in
  let lat = ref [] and busy = ref 0. and delivered = ref 0 and speeds = ref [] in
  let read_speed () =
    let f = Speed.factor () in
    speeds := f :: !speeds;
    f
  in
  if Option.is_some tr then lay.before <- Some (Quantum.Metrics.snapshot ());
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. seconds in
  Trace.span tr ~parent:0 ~name:"run" ~layer:"harness" ~op:0 (fun root ->
      let rec pass () =
        probe ();
        let speed = ref (read_speed ()) in
        List.iter
          (fun (name, shape) ->
            let p = shape wl in
            let rng_seed = Random.State.bits wl in
            incr attempted;
            let t0 = Unix.gettimeofday () in
            let result =
              match solve ~tr ~lay ~root ~op:!attempted p ~rng_seed with
              | r -> Ok r
              | exception e -> Error e
            in
            let dt = Unix.gettimeofday () -. t0 in
            let after = read_speed () in
            let dt = dt *. (!speed +. after) /. 2. in
            speed := after;
            match result with
            | Ok (gens, rounds) ->
                lat := (name, dt *. 1000.) :: !lat;
                busy := !busy +. dt;
                delivered := !delivered + rounds;
                if
                  not
                    (Trace.span tr ~parent:root ~name:"check" ~layer:"harness" ~op:!attempted
                       (fun _ -> Plant.solve_ok p gens))
                then begin
                  incr failed;
                  Printf.eprintf "hsp_bench: wrong subgroup recovered on %s\n%!" (Plant.label p)
                end
            | Error e ->
                incr failed;
                Printf.eprintf "hsp_bench: solve on %s raised %s\n%!" (Plant.label p)
                  (Printexc.to_string e))
          spec.shapes;
        if Unix.gettimeofday () < deadline then pass ()
      in
      pass ());
  let wall = Unix.gettimeofday () -. t_start in
  if Option.is_some tr then lay.after <- Some (Quantum.Metrics.snapshot ());
  lay.ops <- !attempted;
  {
    Window.wall;
    attempted = !attempted;
    failed = !failed;
    busy = !busy;
    delivered = !delivered;
    latency_ms = Array.of_list (List.map snd !lat);
    groups = Window.group !lat;
    speeds = Array.of_list !speeds;
  }
