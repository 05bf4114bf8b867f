(* Dense/sparse backend equivalence suite.

   The sparse backend ({!Quantum.Backend_sparse}) runs the
   Fourier-sampling pipeline only: an index segment in, single-wire
   DFTs, a full-register draw out.  These tests pin down that its DFT
   is observationally identical to the dense reference
   ({!Quantum.Backend_dense}) on generic supports — the same random
   DFT circuit applied to the same initial state yields the same
   amplitudes (within 1e-9) and norms — and bit-identical to a
   sort-based reference kernel; that every amplitude-level [State]
   operation refuses a sparse operand; and that the sparse pipeline
   runs beyond the dense 2^24 amplitude cap, where no dense reference
   exists and only structural invariants (support, Fourier-sampling
   correctness) can be checked. *)

open Quantum
open Linalg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Generic sparse segments and random DFT circuits                    *)
(* ------------------------------------------------------------------ *)

(* The normalised segment of the given basis-tuple amplitudes:
   duplicates summed in list order, exact zeros dropped, indices
   sorted. *)
let segment_state dims entries =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (x, a) ->
      let i = Backend.encode dims x in
      Hashtbl.replace tbl i (Cx.add a (Option.value ~default:Cx.zero (Hashtbl.find_opt tbl i))))
    entries;
  let seg =
    Hashtbl.fold (fun i a acc -> if Cx.norm2 a > 0.0 then (i, a) :: acc else acc) tbl []
    |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
    |> Array.of_list
  in
  let nrm = sqrt (Array.fold_left (fun acc (_, a) -> acc +. Cx.norm2 a) 0.0 seg) in
  let re = Array.map (fun (_, a) -> a.Complex.re /. nrm) seg in
  let im = Array.map (fun (_, a) -> a.Complex.im /. nrm) seg in
  Backend_sparse.of_indices ~planes:(re, im) dims (Array.map fst seg)

let random_entries rng dims =
  let k = 1 + Random.State.int rng 6 in
  List.init k (fun _ ->
      ( Array.map (fun d -> Random.State.int rng d) dims,
        Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0) ))

(* A random support on 1-3 wires of dimension 2-5 pushed through six
   random single-wire DFTs on both backends. *)
let run_both rng =
  let dims = Array.init (1 + Random.State.int rng 3) (fun _ -> 2 + Random.State.int rng 4) in
  let sparse = segment_state dims (random_entries rng dims) in
  let dense = Backend_dense.of_amplitudes dims (Backend_sparse.amplitudes sparse) in
  List.fold_left
    (fun (d, s) _ ->
      let wire = Random.State.int rng (Array.length dims) and inverse = Random.State.bool rng in
      (Backend_dense.fourier d ~wires:[ wire ] ~inverse, Backend_sparse.apply_dft s ~wire ~inverse))
    (dense, sparse) (List.init 6 Fun.id)

let agree (dense, sparse) =
  Cvec.approx_equal ~eps:1e-9 (Backend_dense.amplitudes dense) (Backend_sparse.amplitudes sparse)
  && Float.abs (Backend_dense.norm dense -. Backend_sparse.norm sparse) < 1e-9

let test_random_circuit_agreement () =
  let rng = Random.State.make [| 0xbac0 |] in
  for trial = 1 to 40 do
    checkb (Printf.sprintf "trial %d: amplitudes and norms agree" trial) true (agree (run_both rng))
  done

(* QCheck variant: the invariant as a property over generated seeds,
   so shrinking points at a minimal failing circuit seed. *)
let qcheck_props =
  let open QCheck in
  [
    Test.make ~count:60 ~name:"dense/sparse agree on random circuits" (int_bound 100000)
      (fun seed -> agree (run_both (Random.State.make [| seed; 0xfeed |])));
  ]

(* ------------------------------------------------------------------ *)
(* Sparse single-wire DFT kernel                                      *)
(* ------------------------------------------------------------------ *)

(* The sort-based kernel the block gather replaced, kept as the oracle:
   split each entry into a base index (wire digit zeroed) and its digit,
   sort by (base, digit), transform each run of equal base in place
   with [transform] (the fibre DFT), emit every fibre's kept outputs
   and sort them by index.  Returns the segment as (index, re, im), the populated-fibre
   count and the pruned count. *)
let sort_kernel ~eps ~dims entries ~wire ~transform =
  let d = dims.(wire) and s = (Backend.strides dims).(wire) in
  let n = Array.length entries in
  let digit = Array.map (fun (i, _, _) -> i / s mod d) entries in
  let base = Array.mapi (fun e (i, _, _) -> i - (digit.(e) * s)) entries in
  let perm = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Int.compare base.(a) base.(b) in
      if c <> 0 then c else Int.compare digit.(a) digit.(b))
    perm;
  let out = ref [] and fibres = ref 0 and pruned = ref 0 in
  let p = ref 0 in
  while !p < n do
    let b = base.(perm.(!p)) in
    let f_re = Array.make d 0.0 and f_im = Array.make d 0.0 in
    while !p < n && Int.equal base.(perm.(!p)) b do
      let e = perm.(!p) in
      let _, x, y = entries.(e) in
      f_re.(digit.(e)) <- x;
      f_im.(digit.(e)) <- y;
      incr p
    done;
    incr fibres;
    transform f_re f_im;
    for k = 0 to d - 1 do
      let x = f_re.(k) and y = f_im.(k) in
      if (x *. x) +. (y *. y) > eps *. eps then out := (b + (k * s), x, y) :: !out
      else if not (Float.equal x 0.0 && Float.equal y 0.0) then incr pruned
    done
  done;
  let out = Array.of_list !out in
  Array.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) out;
  (out, !fibres, !pruned)

let segment st =
  let seg = Array.make (Backend_sparse.support_size st) (0, 0.0, 0.0) and e = ref 0 in
  Backend_sparse.iter_nonzero st (fun i z ->
      seg.(!e) <- (i, z.Complex.re, z.Complex.im);
      incr e);
  seg

let same_bits (i, x, y) (i', x', y') =
  Int.equal i i'
  && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float x')
  && Int64.equal (Int64.bits_of_float y) (Int64.bits_of_float y')

let same_segment a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let kernel_dims = [| 1; 2; 4; 7; 97; 100; 196; 256 |]

(* A random support of 1-300 entries on 2-6 wires.  Each wire draws its
   digits from a small pool or uniformly, so fibres hold several entries,
   blocks hold several rows, and rows share some lo values but not all.
   Half the states are uniform superpositions, whose transforms cancel
   to rounding noise and so exercise pruning.  A [large] state takes
   6,144-10,239 uniform draws on 8-10 wires of dimension 2, 4 or 7 (at
   least 2^16 in all) instead: enough distinct entries for the DFT
   kernel to split the segment (and wire 0's single block) into several
   chunks, with small enough fibres that the oracle stays fast. *)
let kernel_state ~large rng =
  let r = if large then 8 + Random.State.int rng 3 else 2 + Random.State.int rng 5 in
  let pick = if large then [| 2; 4; 7 |] else kernel_dims in
  let rec draw_dims () =
    let dims = Array.init r (fun _ -> pick.(Random.State.int rng (Array.length pick))) in
    if large && Array.fold_left ( * ) 1 dims < 1 lsl 16 then draw_dims () else dims
  in
  let dims = draw_dims () in
  let pools =
    Array.map
      (fun d ->
        if Random.State.bool rng || large then None
        else Some (Array.init (1 + Random.State.int rng (min d 4)) (fun _ -> Random.State.int rng d)))
      dims
  in
  let digit w =
    match pools.(w) with
    | None -> Random.State.int rng dims.(w)
    | Some pool -> pool.(Random.State.int rng (Array.length pool))
  in
  let uniform = Random.State.bool rng in
  let amp () =
    if uniform then Cx.one
    else Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)
  in
  let n = if large then 6144 + Random.State.int rng 4096 else 1 + Random.State.int rng 300 in
  let entries = List.init n (fun _ -> (Array.init r digit, amp ())) in
  (dims, segment_state dims entries)

let dft_transform d ~inverse =
  let plan = Fft.plan d in
  let scratch = Fft.scratch plan in
  fun re im -> Fft.exec plan ~inverse scratch ~off:0 ~stride:1 ~lanes:1 re im

let with_jobs j f =
  let saved = Parallel.jobs () in
  Parallel.set_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs saved) f

(* Per state, the DFT on every wire in both directions: the sparse
   kernel's block gather returns the oracle's segment bit for bit —
   strictly increasing — and charges the same fibres and pruned
   amplitudes to the ledger; it agrees with the dense backend wherever
   the register fits, takes a prebuilt plan without changing a bit, and
   is bit-identical on a 2-job pool, where the chunks (whole blocks, or
   runs of a lone block's fibres, always so on wire 0) run on two
   domains. *)
let kernel_matches ~large seed =
  let rng = Random.State.make [| seed; 0xf1b |] in
  let dims, st = kernel_state ~large rng in
  let eps = Backend_sparse.prune_eps in
  let input = segment st in
  let total = Array.fold_left ( * ) 1 dims in
  let dense_in =
    if total <= 1 lsl 16 then Some (Backend_dense.of_amplitudes dims (Backend_sparse.amplitudes st))
    else None
  in
  let ok = ref (not large || Backend_sparse.support_size st >= 4096) in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        ok := false;
        Printf.printf "seed %d dims [%s]: %s\n" seed
          (String.concat ";" (Array.to_list (Array.map string_of_int dims)))
          msg)
      fmt
  in
  let cases =
    List.concat_map (fun w -> [ (w, false); (w, true) ]) (List.init (Array.length dims) Fun.id)
  in
  let name (wire, inverse) =
    Printf.sprintf "%s wire %d" (if inverse then "inverse dft" else "dft") wire
  in
  let ledger_delta (wire, inverse) =
    let m0 = Metrics.snapshot () in
    let got = Backend_sparse.apply_dft st ~wire ~inverse in
    let m1 = Metrics.snapshot () in
    ( got,
      m1.Metrics.dft_fibres - m0.Metrics.dft_fibres,
      m1.Metrics.pruned_amps - m0.Metrics.pruned_amps )
  in
  let serial =
    List.map
      (fun ((wire, inverse) as case) ->
        let name = name case in
        let expect, fibres, pruned =
          sort_kernel ~eps ~dims input ~wire ~transform:(dft_transform dims.(wire) ~inverse)
        in
        let got, got_fibres, got_pruned = ledger_delta case in
        let seg = segment got in
        if not (same_segment seg expect) then fail "%s: segment differs from the sort kernel" name;
        for e = 1 to Array.length seg - 1 do
          let (a, _, _), (b, _, _) = (seg.(e - 1), seg.(e)) in
          if a >= b then fail "%s: segment not strictly increasing at %d" name e
        done;
        if got_fibres <> fibres then fail "%s: fibres %d, want %d" name got_fibres fibres;
        if got_pruned <> pruned then fail "%s: pruned_amps %d, want %d" name got_pruned pruned;
        (match dense_in with
        | None -> ()
        | Some dn ->
            let want = Backend_dense.amplitudes (Backend_dense.fourier dn ~wires:[ wire ] ~inverse) in
            if not (Cvec.approx_equal ~eps:1e-9 want (Backend_sparse.amplitudes got)) then
              fail "%s: sparse differs from dense" name);
        (seg, fibres, pruned))
      cases
  in
  for wire = 0 to Array.length dims - 1 do
    let planned = Backend_sparse.apply_dft ~plan:(Fft.plan dims.(wire)) st ~wire ~inverse:false in
    if not (same_segment (segment planned) (segment (Backend_sparse.apply_dft st ~wire ~inverse:false)))
    then fail "dft wire %d: plan changes bits" wire
  done;
  List.iter2
    (fun case (seg, fibres, pruned) ->
      let got, pfibres, ppruned = with_jobs 2 (fun () -> ledger_delta case) in
      if not (same_segment (segment got) seg) then fail "%s: jobs=2 differs" (name case);
      if pfibres <> fibres || ppruned <> pruned then
        fail "%s: jobs=2 ledger %d fibres / %d pruned, want %d / %d" (name case) pfibres ppruned
          fibres pruned)
    cases serial;
  !ok

let kernel_props =
  [
    QCheck.Test.make ~count:40 ~name:"sparse DFT = sort kernel = dense"
      QCheck.(int_bound 1_000_000) (kernel_matches ~large:false);
  ]

(* The dense DFT transforms a wire's fibres in place as interleaved
   lanes; the sparse one gathers each fibre on its own.  On fully
   populated states, at every wire position, the dense output is bit
   for bit each fibre's one-lane transform, and agrees with the sparse
   backend.  The shapes cover the straight-line lengths (2 to 5),
   radix-2 at a strided and at the last wire, and Bluestein. *)
let test_dense_dft_matches_sparse () =
  let rng = Random.State.make [| 0xd5f7 |] in
  List.iter
    (fun dims ->
      let name = String.concat ";" (Array.to_list (Array.map string_of_int dims)) in
      let total = Array.fold_left ( * ) 1 dims in
      let v =
        Array.init total (fun _ ->
            Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))
      in
      let dn = Backend_dense.of_amplitudes dims v in
      let x_re, x_im = Cvec.split (Backend_dense.amplitudes dn) in
      let sp = Backend_sparse.of_indices ~planes:(x_re, x_im) dims (Array.init total Fun.id) in
      let str = Backend.strides dims in
      Array.iteri
        (fun wire d ->
          List.iter
            (fun inverse ->
              let a = Backend_dense.amplitudes (Backend_dense.fourier dn ~wires:[ wire ] ~inverse) in
              let b = Backend_sparse.amplitudes (Backend_sparse.apply_dft sp ~wire ~inverse) in
              if not (Cvec.approx_equal ~eps:1e-12 a b) then
                Alcotest.failf "dims [%s] wire %d inverse %b: dense differs from sparse" name wire
                  inverse;
              (* the reference: gather each fibre, transform it alone *)
              let transform = dft_transform d ~inverse in
              let f_re = Array.make d 0.0 and f_im = Array.make d 0.0 in
              for j0 = 0 to total - 1 do
                if j0 / str.(wire) mod d = 0 then begin
                  for k = 0 to d - 1 do
                    f_re.(k) <- x_re.(j0 + (k * str.(wire)));
                    f_im.(k) <- x_im.(j0 + (k * str.(wire)))
                  done;
                  transform f_re f_im;
                  for k = 0 to d - 1 do
                    let z = a.(j0 + (k * str.(wire))) in
                    if
                      not
                        (Int64.equal (Int64.bits_of_float z.re) (Int64.bits_of_float f_re.(k))
                        && Int64.equal (Int64.bits_of_float z.im) (Int64.bits_of_float f_im.(k)))
                    then
                      Alcotest.failf "dims [%s] wire %d inverse %b: entry %d is not its fibre's"
                        name wire inverse (j0 + (k * str.(wire)))
                  done
                end
              done)
            [ false; true ])
        dims)
    [ [| 3; 5; 4 |]; [| 2; 2; 2; 2 |]; [| 36; 120 |]; [| 64; 128 |] ]

let test_kernel_chunked () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (kernel_matches ~large:true seed))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Sparse beyond the dense cap                                        *)
(* ------------------------------------------------------------------ *)

(* |G| = 8192 * 4096 = 2^25 > 2^24: the dense backend must refuse this
   register while sparse runs the whole Fourier-sampling round on it. *)
let big_dims = [| 8192; 4096 |]
let big_moduli = [| 128; 64 |]

let big_coset x0 =
  let choices i =
    List.init (big_dims.(i) / big_moduli.(i)) (fun k ->
        (x0.(i) + (k * big_moduli.(i))) mod big_dims.(i))
  in
  List.concat_map (fun a -> List.map (fun b -> [| a; b |]) (choices 1)) (choices 0)

let test_sparse_coset_beyond_cap () =
  let rng = Random.State.make [| 0xb16 |] in
  checkb "beyond the cap" true (Backend.total_of big_dims > Backend.Caps.dense_state);
  Alcotest.check_raises "dense refuses"
    (Invalid_argument "State: register too large to simulate") (fun () ->
      ignore (State.create big_dims));
  let x0 = [| 3; 5 |] in
  let members = big_coset x0 in
  let idxs = Array.of_list (List.sort Int.compare (List.map (State.encode big_dims) members)) in
  let st = State.of_indices ~backend:Backend.Sparse big_dims idxs in
  checkb "sparse backend" true (State.backend st = Backend.Sparse);
  checki "coset support" (List.length members) (State.support_size st);
  let st = Qft.forward st ~wires:[ 0; 1 ] in
  (* The Fourier transform of |x0 + H> is supported on the annihilator
     H^perp = { y : y_i * m_i = 0 mod d_i }, of size |G| / |H|. *)
  let hperp_order = Backend.total_of big_dims / List.length members in
  checkb "fourier support <= |H^perp|" true (State.support_size st <= hperp_order);
  State.iter_nonzero st (fun idx _ ->
      let y = State.decode big_dims idx in
      checkb "character annihilates H" true
        (y.(0) * big_moduli.(0) mod big_dims.(0) = 0
        && y.(1) * big_moduli.(1) mod big_dims.(1) = 0));
  (* measure_all never materialises the 2^25 outcome space *)
  for _ = 1 to 5 do
    let y = State.measure_all rng st in
    checkb "measured character annihilates H" true
      (y.(0) * big_moduli.(0) mod big_dims.(0) = 0
      && y.(1) * big_moduli.(1) mod big_dims.(1) = 0)
  done

let test_sparse_solve_beyond_cap () =
  let rng = Random.State.make [| 0xb17 |] in
  let queries = Quantum.Query.create () in
  let draw =
    Coset_state.sampler_with_subgroup ~backend:Backend.Sparse ~dims:big_dims
      ~subgroup:[ [| big_moduli.(0); 0 |]; [| 0; big_moduli.(1) |] ]
      ~queries ()
  in
  let in_h x = Array.for_all2 (fun xi m -> xi mod m = 0) x big_moduli in
  let f x = Backend.encode big_moduli (Array.map2 (fun xi m -> xi mod m) x big_moduli) in
  let gens, _ =
    Hsp.Abelian_hsp.solve_dims rng ~draw ~dims:big_dims ~f ~quantum:queries ~verify:in_h ()
  in
  checkb "found generators" true (gens <> []);
  checkb "generators lie in H" true (List.for_all in_h gens);
  (* The closure of the recovered generators must be all of H.  H is a
     product grid, so its order is known in closed form and small
     enough to enumerate even though |G| is not. *)
  let tbl = Hashtbl.create 97 in
  Hashtbl.replace tbl (0, 0) ();
  let frontier = ref [ (0, 0) ] in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun (a, b) ->
        List.iter
          (fun g ->
            let y = ((a + g.(0)) mod big_dims.(0), (b + g.(1)) mod big_dims.(1)) in
            if not (Hashtbl.mem tbl y) then begin
              Hashtbl.replace tbl y ();
              next := y :: !next
            end)
          gens)
      !frontier;
    frontier := !next
  done;
  let h_order =
    (big_dims.(0) / big_moduli.(0)) * (big_dims.(1) / big_moduli.(1))
  in
  checki "generators generate H" h_order (Hashtbl.length tbl)

(* A planted coset just above 2^20 members on sparse Z_2048 x Z_2048:
   H = 2Z_2048 x Z_2048, |H| = 2^21.  The amplitude route enumerates it
   under Caps.coset_sparse, not the 2^20 demotion rail, and the round
   lands on H^perp = {0, 1024} x {0}.  Past Caps.coset_sparse the
   enumeration is refused before anything is built. *)
let test_sparse_coset_above_2_20 () =
  Metrics.reset ();
  let dims = [| 2048; 2048 |] in
  let members = 1 lsl 21 in
  checkb "above the demotion rail" true (members > Backend.Caps.symbolic_materialise);
  let queries = Query.create () in
  let draw =
    Coset_state.sampler_with_subgroup ~backend:Backend.Sparse ~dims
      ~subgroup:[ [| 2; 0 |]; [| 0; 1 |] ] ~queries ()
  in
  let y = draw (Random.State.make [| 0x2021 |]) in
  checkb "outcome in H^perp" true ((y.(0) = 0 || y.(0) = 1024) && y.(1) = 0);
  checki "one round visits the whole coset" members (Metrics.snapshot ()).Metrics.coset_visits;
  checki "one query" 1 (Query.count queries);
  let wide = Array.make 27 2 in
  let everything = Backend_symbolic.Subgroup.full wide in
  Alcotest.check_raises "past Caps.coset_sparse"
    (Invalid_argument "State.of_coset: coset too large to enumerate (Caps.coset_sparse)")
    (fun () -> ignore (State.of_coset ~backend:Backend.Sparse everything ~rep:(Array.make 27 0)))

let test_of_indices () =
  let dims = [| 4; 5 |] in
  let idxs = [| 1; 7; 11; 19 |] in
  let d = State.of_indices ~backend:Backend.Dense dims idxs in
  let s = State.of_indices ~backend:Backend.Sparse dims idxs in
  checkb "dense/sparse of_indices agree" true (State.approx_equal ~eps:1e-12 d s);
  checkb "default backend is sparse" true
    (State.backend (State.of_indices dims idxs) = Backend.Sparse);
  checki "support" 4 (State.support_size s);
  checkb "uniform amplitude" true (Float.abs (Complex.norm (State.amp_at s 7) -. 0.5) < 1e-12);
  checkb "unit norm" true (Float.abs (State.norm s -. 1.0) < 1e-12);
  List.iter
    (fun backend ->
      Alcotest.check_raises "empty rejected" (Invalid_argument "State.of_indices: empty support")
        (fun () -> ignore (State.of_indices ~backend dims [||]));
      Alcotest.check_raises "unsorted rejected"
        (Invalid_argument "State.of_indices: indices must be strictly increasing") (fun () ->
          ignore (State.of_indices ~backend dims [| 3; 3 |]));
      Alcotest.check_raises "out of range rejected"
        (Invalid_argument "State.of_indices: index out of range") (fun () ->
          ignore (State.of_indices ~backend dims [| 0; 20 |])))
    [ Backend.Dense; Backend.Sparse ];
  (* beyond the dense cap the segment is adopted as-is *)
  let big = Array.init 1000 (fun k -> 7 + (33 * k)) in
  let st = State.of_indices big_dims big in
  checki "big support" 1000 (State.support_size st);
  checkb "big amp" true
    (Float.abs (Complex.norm (State.amp_at st 7) -. (1.0 /. sqrt 1000.0)) < 1e-12)

let test_sparse_pruning () =
  (* Destructive interference must shrink the table: DFT then inverse
     DFT of a basis state passes through full support and returns to a
     single entry (up to the pruning epsilon). *)
  let dims = [| 64 |] in
  let st = State.of_indices ~backend:Backend.Sparse dims [| 17 |] in
  let st = State.fourier st ~wires:[ 0 ] ~inverse:false in
  checki "full support mid-flight" 64 (State.support_size st);
  let st = State.fourier st ~wires:[ 0 ] ~inverse:true in
  checki "pruned back to a point" 1 (State.support_size st);
  checkb "right point" true (Complex.norm (State.amp_at st 17) > 0.999)

(* ------------------------------------------------------------------ *)
(* The sparse contract: the Fourier pipeline only                     *)
(* ------------------------------------------------------------------ *)

(* Every amplitude-level State operation refuses a sparse operand with
   an Invalid_argument naming itself, and touches no ledger counter;
   the pipeline's own operations and the read-only views still run. *)
let test_sparse_refuses_amplitude_ops () =
  let dims = [| 4; 6 |] in
  let sp = State.of_indices ~backend:Backend.Sparse dims [| 1; 7; 11; 19 |] in
  let dn = State.of_indices ~backend:Backend.Dense dims [| 1; 7; 11; 19 |] in
  let refused op f =
    Metrics.reset ();
    Alcotest.check_raises op
      (Invalid_argument
         (Printf.sprintf "State.%s: sparse states run only of_indices, fourier and measure_all" op))
      (fun () -> ignore (f ()));
    checkb (op ^ ": ledger untouched") true
      (List.for_all (fun (_, v) -> v = 0) (Metrics.counters (Metrics.snapshot ())))
  in
  let rng = Random.State.make [| 1 |] in
  refused "tensor" (fun () -> State.tensor sp dn);
  refused "tensor" (fun () -> State.tensor dn sp);
  refused "apply_wire" (fun () -> State.apply_wire sp ~wire:0 (Cmat.dft 4));
  refused "apply_wires" (fun () -> State.apply_wires sp ~wires:[ 1 ] (Cmat.dft 6));
  refused "apply_basis_map" (fun () -> State.apply_basis_map sp Fun.id);
  refused "apply_oracle_add" (fun () ->
      State.apply_oracle_add sp ~in_wires:[ 0 ] ~out_wire:1 ~f:(fun x -> x.(0)));
  refused "probabilities" (fun () -> State.probabilities sp ~wires:[ 0 ]);
  refused "measure" (fun () -> State.measure rng sp ~wires:[ 0 ]);
  refused "measure" (fun () -> State.measure rng sp ~wires:[ 0; 1 ]);
  let swept = Qft.forward sp ~wires:[ 0; 1 ] and one = State.fourier sp ~wires:[ 1 ] ~inverse:true in
  checkb "fourier stays sparse" true (State.backend swept = Backend.Sparse);
  checkb "single-wire sweep stays sparse" true (State.backend one = Backend.Sparse);
  checkb "fourier agrees with dense" true
    (State.approx_equal ~eps:1e-12 swept (Qft.forward dn ~wires:[ 0; 1 ]));
  checkb "amplitudes export" true
    (Cvec.approx_equal ~eps:1e-12 (State.amplitudes sp) (State.amplitudes dn));
  let y = State.measure_all rng swept in
  checkb "measure_all draws from the support" true
    (Cx.norm2 (State.amp_at swept (State.encode dims y)) > 0.0)

let () =
  Alcotest.run "backends"
    [
      ("equivalence", [ Alcotest.test_case "random circuits" `Quick test_random_circuit_agreement ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
      ( "dft kernel",
        List.map QCheck_alcotest.to_alcotest kernel_props
        @ [
            Alcotest.test_case "chunked segments" `Quick test_kernel_chunked;
            Alcotest.test_case "dense dft = sparse dft" `Quick test_dense_dft_matches_sparse;
          ] );
      ( "beyond-cap",
        [
          Alcotest.test_case "of_indices" `Quick test_of_indices;
          Alcotest.test_case "coset state at 2^25" `Quick test_sparse_coset_beyond_cap;
          Alcotest.test_case "end-to-end solve at 2^25" `Slow test_sparse_solve_beyond_cap;
          Alcotest.test_case "coset above 2^20 members" `Quick test_sparse_coset_above_2_20;
          Alcotest.test_case "amplitude pruning" `Quick test_sparse_pruning;
        ] );
      ( "contract",
        [ Alcotest.test_case "amplitude ops refused" `Quick test_sparse_refuses_amplitude_ops ] );
    ]
