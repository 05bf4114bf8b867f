open Linalg

let check_total ~cap total =
  if total > cap then
    invalid_arg "Coset_state: group too large for state-vector simulation";
  total

(* Dense-path size check: [sample_full] materialises O(|A|) dense
   data. *)
let total_of dims = check_total ~cap:Backend.Caps.coset_dense (Array.fold_left ( * ) 1 dims)

(* ------------------------------------------------------------------ *)
(* First-class sampler prep                                            *)
(* ------------------------------------------------------------------ *)

(* The expensive, reusable artifact of [sampler]: the oracle expanded
   classically ONCE into CSR coset buckets.  Coset [c]'s basis indices
   are [members] positions [starts.(c) .. starts.(c+1)-1], in
   increasing order.  The pass is O(|A|), shared by all samples drawn
   from the prep (ledger: sampler_preps stays at 1 per oracle) and
   charged to "sample-prep"; after it, one sample touches only its own
   bucket — O(|coset|), never O(|A|) again.  Keeping the prep
   first-class lets the service layer cache it across requests, so the
   O(|A|) pass is paid once per oracle, not once per request.

   [members] holds one int32 per group element in a [Bytes] (|A| is
   capped at 2^26, and the GC never scans bytes); [starts] holds one
   word per coset.  A draw needs no per-element tag table: a uniform
   position in [members] lands in coset c with probability |c| / |A|,
   and a binary search over [starts] finds c.

   [plans.(w)] is the Fourier plan of wire w's dimension, one per
   distinct dimension, built with the buckets on the amplitude backends
   so that no round rebuilds one; a symbolic prep holds none (its wire
   dimensions may exceed anything a plan could tabulate). *)
type tables = { starts : int array; members : Bytes.t; plans : Fft.plan array option }

type prep = {
  pdims : int array;
  pbackend : Backend.choice;  (* Dense or Sparse, from oracle_backend *)
  ptotal : int;
  pwires : int list;
  ptables : tables Lazy.t;  (* built on first use *)
}

let member members i = Int32.to_int (Bytes.get_int32_ne members (4 * i))

(* The Fourier plans of a sampler whose states land on [choice]: on
   the amplitude backends one plan per distinct dimension, shared by
   every wire that has it; none on a symbolic route. *)
let plans_for choice dims =
  match choice with
  | Backend.Symbolic -> None
  | Backend.Dense | Backend.Sparse ->
      let built = ref [] in
      Some
        (Array.map
           (fun d ->
             match List.find_opt (fun p -> Int.equal (Fft.length p) d) !built with
             | Some p -> p
             | None ->
                 let p = Fft.plan d in
                 built := p :: !built;
                 p)
           dims)

(* Coset ids keyed by oracle value, by open addressing: linear probing
   over a power-of-two capacity, doubled when more than half full.  A
   slot is empty when its [ids] entry is -1, never by a reserved key:
   an oracle value may be any int, [min_int] and negatives included.
   [sizes] counts, per slot, the elements its coset has had so far, so
   the tag pass also yields every coset's size. *)
module Ids = struct
  type t = {
    mutable keys : int array;
    mutable ids : int array;
    mutable sizes : int array;
    mutable shift : int;  (* Sys.int_size - log2 (capacity) *)
    mutable count : int;
  }

  let create ~bits =
    let cap = 1 lsl bits in
    {
      keys = Array.make cap 0;
      ids = Array.make cap (-1);
      sizes = Array.make cap 0;
      shift = Sys.int_size - bits;
      count = 0;
    }

  let rec probe tbl t i =
    if tbl.ids.(i) < 0 || Int.equal tbl.keys.(i) t then i
    else probe tbl t ((i + 1) land (Array.length tbl.ids - 1))

  (* The slot holding [t], or the empty one where it goes.  The home
     slot is Fibonacci hashing: the top bits of the key times an odd
     constant, which depend on every bit of the key. *)
  let slot tbl t = probe tbl t ((t * 0x9E3779B97F4A7C1) lsr tbl.shift)

  let grow tbl =
    let { keys; ids; sizes; _ } = tbl in
    let cap = 2 * Array.length ids in
    tbl.keys <- Array.make cap 0;
    tbl.ids <- Array.make cap (-1);
    tbl.sizes <- Array.make cap 0;
    tbl.shift <- tbl.shift - 1;
    for s = 0 to Array.length ids - 1 do
      if ids.(s) >= 0 then begin
        let i = slot tbl keys.(s) in
        tbl.keys.(i) <- keys.(s);
        tbl.ids.(i) <- ids.(s);
        tbl.sizes.(i) <- sizes.(s)
      end
    done

  (* The id of tag [t], counting one more element of its coset; a tag
     not seen before takes the next id, so ids follow first
     occurrence. *)
  let tag tbl t =
    let i = slot tbl t in
    let id = tbl.ids.(i) in
    if id >= 0 then begin
      tbl.sizes.(i) <- tbl.sizes.(i) + 1;
      id
    end
    else begin
      let id = tbl.count in
      tbl.keys.(i) <- t;
      tbl.ids.(i) <- id;
      tbl.sizes.(i) <- 1;
      tbl.count <- id + 1;
      if 2 * tbl.count > Array.length tbl.ids then grow tbl;
      id
    end

  (* [starts] of the CSR tables: the prefix sums of the coset sizes in
     id order. *)
  let starts tbl =
    let starts = Array.make (tbl.count + 1) 0 in
    Array.iteri (fun s id -> if id >= 0 then starts.(id + 1) <- tbl.sizes.(s)) tbl.ids;
    for c = 0 to tbl.count - 1 do
      starts.(c + 1) <- starts.(c + 1) + starts.(c)
    done;
    starts
end

(* The two backend rules, one per sampling route, and the only readers
   of the session default: an explicit backend wins, then the session
   default, then the route's own fallback.

   The oracle route's states are index segments, so it lands on dense
   or sparse only, and with no choice at all it pivots on the dense
   route's own cap: every group it sends to dense is one the dense
   route accepts. *)
let oracle_backend ?backend ~total () =
  match (match backend with Some _ -> backend | None -> Backend.default ()) with
  | Some Backend.Dense -> Backend.Dense
  | Some (Backend.Sparse | Backend.Symbolic) -> Backend.Sparse
  | None -> if total <= Backend.Caps.coset_dense then Backend.Dense else Backend.Sparse

(* The planted route is handed subgroup structure, which is the opt-in
   to symbolic: with no choice at all it samples there, at any size. *)
let planted_backend ?backend () =
  match (match backend with Some _ -> backend | None -> Backend.default ()) with
  | Some c -> c
  | None -> Backend.Symbolic

let prep ?backend ~dims ~f () =
  let total = Backend.total_of dims in
  (* The Fourier/measure pipeline never materialises O(|A|) amplitudes
     on the sparse backend, so the cap is the flat-array bound for the
     bucket tables, not the dense amplitude ceiling. *)
  let resolved = oracle_backend ?backend ~total () in
  let cap = match resolved with Backend.Sparse -> Backend.Caps.coset_sparse | _ -> Backend.Caps.coset_dense in
  let total = check_total ~cap total in
  let dims = Array.copy dims in
  let ptables =
    lazy
      ( Metrics.phase Sample_prep @@ fun () ->
        Metrics.tick Sampler_preps;
        (* pass 1 tags every element with its coset id (int32, dropped
           once the buckets are filled) and counts each coset's size;
           pass 2 counting-sorts.  A digit odometer walks the register
           in index order, so pass 1 calls [f] on the points
           State.decode would give, in the same order, without a
           division per element.  [f] borrows the odometer's own array
           for the call (it must not retain it), so no element
           allocates a tuple. *)
        let ids = Ids.create ~bits:6 in
        let tag_id = Bytes.create (4 * total) in
        let r = Array.length dims in
        let x = Array.make r 0 in
        for idx = 0 to total - 1 do
          Bytes.set_int32_ne tag_id (4 * idx) (Int32.of_int (Ids.tag ids (f x)));
          (* advance the odometer, least significant wire last *)
          let w = ref (r - 1) in
          while !w >= 0 && x.(!w) = dims.(!w) - 1 do
            x.(!w) <- 0;
            decr w
          done;
          if !w >= 0 then x.(!w) <- x.(!w) + 1
        done;
        let k = ids.Ids.count in
        let starts = Ids.starts ids in
        let fill = Array.sub starts 0 k in
        let members = Bytes.create (4 * total) in
        (* ascending idx: every bucket comes out sorted, ready to be
           adopted directly as a sparse segment *)
        for idx = 0 to total - 1 do
          let id = member tag_id idx in
          Bytes.set_int32_ne members (4 * fill.(id)) (Int32.of_int idx);
          fill.(id) <- fill.(id) + 1
        done;
        { starts; members; plans = plans_for resolved dims } )
  in
  {
    pdims = dims;
    pbackend = resolved;
    ptotal = total;
    pwires = List.init (Array.length dims) (fun i -> i);
    ptables;
  }

let prep_force p = ignore (Lazy.force p.ptables)

let prep_buckets p =
  let { starts; members; _ } = Lazy.force p.ptables in
  (Array.copy starts, Array.init (Bytes.length members / 4) (member members))

let prep_backend p = p.pbackend

let prep_bytes p =
  (* Heap footprint in bytes of the prep's tables plus a small fixed
     overhead for the record and dims — the unit of the service cache's
     byte budget: 4 bytes per group element for [members], one word
     per coset for [starts], and each block's header. *)
  let word = Sys.word_size / 8 in
  let plans_bytes = function
    | None -> 0
    | Some plans ->
        (* the array and its option box, then each distinct plan once *)
        Array.to_list plans
        |> List.sort_uniq (fun a b -> Int.compare (Fft.length a) (Fft.length b))
        |> List.fold_left (fun acc pl -> acc + Fft.plan_bytes pl) (word * (Array.length plans + 3))
  in
  let starts_words, plan_bytes =
    if Lazy.is_val p.ptables then
      let { starts; plans; _ } = Lazy.force p.ptables in
      (Array.length starts, plans_bytes plans)
    else (2, 0) (* unforced: the coset count is not known yet; at least one *)
  in
  (4 * p.ptotal) + plan_bytes + (word * (starts_words + Array.length p.pdims + 16))

(* The coset holding position [x] of [members]: the last c with
   starts.(c) <= x, found by binary search. *)
let coset_at starts x =
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  (* invariant: starts.(lo) <= x < starts.(hi) *)
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if starts.(mid) <= x then lo := mid else hi := mid
  done;
  !lo

(* One Fourier-sampling round, shared by every sampler: the query
   tick, then [build] — the coset draw and its state, returned with
   log2 of the coset size — then the Fourier sweep on [plans] and a
   full measurement, and one "coset-round" trace event with the same
   fields on every route. *)
let round ~queries ~wires ~plans ~build rng =
  Query.tick queries;
  let st, coset_log2 = Metrics.phase Sample_prep (fun () -> build rng) in
  let st = Metrics.phase Fourier (fun () -> Qft.forward ?plans st ~wires) in
  let outcome = Metrics.phase Measure (fun () -> State.measure_all rng st) in
  if Metrics.tracing () then
    Metrics.trace "coset-round"
      [
        ("coset_log2", Printf.sprintf "%.2f" coset_log2);
        ("fourier_support", string_of_int (State.support_size st));
        ("outcome", String.concat "," (List.map string_of_int (Array.to_list outcome)));
      ];
  outcome

let sampler_of_prep p ~queries () rng =
  let { starts; members; plans } = Lazy.force p.ptables in
  (* Measure the function register first: the outcome is f(x) for a
     uniform x, i.e. a coset chosen with probability |coset| / |A|.
     Drawing a uniform position in the concatenated buckets and taking
     its bucket implements exactly that. *)
  let build rng =
    let c = coset_at starts (Random.State.full_int rng p.ptotal) in
    let lo = starts.(c) in
    let count = starts.(c + 1) - lo in
    Metrics.add Coset_visits count;
    let idxs = Array.make count 0 in
    for i = 0 to count - 1 do
      idxs.(i) <- member members (lo + i)
    done;
    (State.of_indices ~backend:p.pbackend p.pdims idxs, Float.log2 (float_of_int count))
  in
  round ~queries ~wires:p.pwires ~plans ~build rng

let sampler ?backend ~dims ~f ~queries () =
  sampler_of_prep (prep ?backend ~dims ~f ()) ~queries ()

let sampler_of_subgroup ?backend ~sub ~queries () =
  (* The cryptographic-scale path over an already-canonicalised
     subgroup: one round is O(r^2) end to end on the symbolic backend,
     and pays for two draws and nothing else — the x0 draw (kept as
     the coset's representative, never reduced), an O(1) Fourier
     sweep to the phased annihilator state, and one uniform
     annihilator sample as the outcome.  Z_2^200 is as cheap as Z_2^2;
     there is no group-size cap anywhere.  The annihilator solve is
     memoised inside [sub], so the per-sample work contains no
     normal-form computation at all — and because
     [sub] is a first-class value, the service layer caches it across
     requests (canonicalisation paid once per oracle).  Dense/sparse
     choices enumerate the coset (State.of_coset, capped at
     Backend.Caps.coset_sparse members) and run the amplitude pipeline
     instead: the planted-instance path of [solve-abelian --backend
     dense|sparse] and the benches, and the differential oracles the
     chi-squared gate compares against. *)
  let module Sub = Backend_symbolic.Subgroup in
  let dims = Sub.dims sub in
  let choice = planted_backend ?backend () in
  let visits =
    match (choice, Sub.order_int sub) with
    | (Backend.Dense | Backend.Sparse), Some n -> n
    | _ -> 0
  in
  let coset_log2 = Sub.order_log2 sub in
  let build rng =
    let x0 = Array.map (fun d -> Random.State.full_int rng d) dims in
    if visits > 0 then Metrics.add Coset_visits visits;
    (State.of_coset ~backend:choice sub ~rep:x0, coset_log2)
  in
  round ~queries ~wires:(List.init (Array.length dims) Fun.id) ~plans:(plans_for choice dims)
    ~build

let sampler_with_subgroup ?backend ~dims ~subgroup ~queries () =
  let sub =
    Metrics.phase Sample_prep @@ fun () ->
    Backend_symbolic.Subgroup.of_gens ~dims subgroup
  in
  sampler_of_subgroup ?backend ~sub ~queries ()

let sampler_state_valued ~dims ~f ~queries () =
  (* Reduce the state-valued oracle to the tag case by canonicalising
     each returned vector to a bucket id: the promise (equal within a
     coset, orthogonal across) makes near-equality a safe test.
     Vectors are keyed by their support signature — the indices
     carrying non-negligible mass — so a lookup is one hash probe
     instead of an O(#cosets) scan over every representative seen so
     far.  Equal vectors (deterministic oracle, identical floats) hash
     identically; orthogonal vectors almost always differ in support
     and land in different buckets, and the rare same-support
     orthogonal pair is resolved by an approx-equality scan within the
     (tiny) bucket.  The prep's tagging pass calls [tag_of] once per
     element from one thread, so the table's mutex is never contended
     today; it is a guard that keeps the memo consistent should that
     pass ever be split across parallel chunks. *)
  let lock = Mutex.create () in
  let next_id = ref 0 in
  let buckets : (int list, (int * Cvec.t) list ref) Hashtbl.t = Hashtbl.create 64 in
  let signature v =
    let acc = ref [] in
    for i = Array.length v - 1 downto 0 do
      if Cx.norm2 v.(i) > 1e-12 then acc := i :: !acc
    done;
    !acc
  in
  let tag_of x =
    let v = f x in
    let key = signature v in
    Mutex.protect lock @@ fun () ->
    let bucket =
      match Hashtbl.find_opt buckets key with
      | Some b -> b
      | None ->
          let b = ref [] in
          Hashtbl.add buckets key b;
          b
    in
    match
      List.find_opt (fun (_, r) -> Cvec.approx_equal ~eps:1e-6 r v) !bucket
    with
    | Some (id, _) -> id
    | None ->
        let id = !next_id in
        incr next_id;
        bucket := (id, v) :: !bucket;
        id
  in
  sampler ~dims ~f:tag_of ~queries ()

let sample_full rng ~dims ~f ~queries () =
  Query.tick queries;
  let total = total_of dims in
  (* Canonicalise oracle values to 0..k-1 so they fit one output wire.
     One classical pass both assigns the ids and memoises every basis
     tuple's tag, so [f] is evaluated exactly once per element — the
     oracle unitary below reads the memo instead of re-evaluating.
     That pass is simulator work outside the single quantum query
     charged above, so it is recorded in the ledger's [classical_evals]
     rather than silently vanishing from the cost accounting. *)
  let values = Hashtbl.create 64 in
  let tags =
    Array.init total (fun idx ->
        let v = f (State.decode dims idx) in
        match Hashtbl.find_opt values v with
        | Some k -> k
        | None ->
            let k = Hashtbl.length values in
            Hashtbl.add values v k;
            k)
  in
  Metrics.add Classical_evals total;
  let out_dim = max 1 (Hashtbl.length values) in
  let n = Array.length dims in
  let group_wires = List.init n (fun i -> i) in
  let st = State.uniform dims in
  let st = State.tensor st (State.create [| out_dim |]) in
  let st =
    State.apply_oracle_add st ~in_wires:group_wires ~out_wire:n
      ~f:(fun x -> tags.(State.encode dims x))
  in
  let st = Metrics.phase Fourier (fun () -> Qft.forward st ~wires:group_wires) in
  let outcome, _ =
    Metrics.phase Measure (fun () -> State.measure rng st ~wires:group_wires)
  in
  outcome

let annihilator_gens basis =
  (* The annihilator of the samples' span is its dual.  The dual's
     rows come out reduced, and a row is zero mod dims only on a
     d_i = h_ii wire, where it is just d_i e_i. *)
  let module Zm = Numtheory.Zmatrix in
  let dual = Zm.hnf_dual basis in
  let dims = Zm.hnf_dims dual in
  Zm.hnf_rows dual
  |> Array.to_list
  |> List.filter (fun g -> not (Array.for_all2 (fun x d -> x mod d = 0) g dims))

let annihilator_subgroup ~dims ys = annihilator_gens (Numtheory.Zmatrix.hnf_of_gens ~dims ys)
