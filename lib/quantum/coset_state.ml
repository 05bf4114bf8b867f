open Linalg

let max_group_size = Backend.Caps.coset_dense
let max_group_size_sparse = Backend.Caps.coset_sparse

let check_total ~cap total =
  if total > cap then
    invalid_arg "Coset_state: group too large for state-vector simulation";
  total

(* Dense-path size check: [sample_full] materialises O(|A|) dense data,
   so it keeps the small cap regardless of backend. *)
let total_of dims = check_total ~cap:max_group_size (Array.fold_left ( * ) 1 dims)

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
   and a binary search over [starts] finds c. *)
type tables = { starts : int array; members : Bytes.t }

type prep = {
  pdims : int array;
  pbackend : Backend.choice;  (* resolved amplitude backend, never Auto *)
  ptotal : int;
  pwires : int list;
  ptables : tables Lazy.t;  (* built on first use *)
}

let member members i = Int32.to_int (Bytes.get_int32_ne members (4 * i))

let prep ?backend ~dims ~f () =
  let total = Backend.total_of dims in
  (* The Fourier/measure pipeline never materialises O(|A|) amplitudes
     on the sparse backend, so the cap is the flat-array bound for the
     bucket tables, not the dense amplitude ceiling. *)
  let resolved = Backend.resolve ?backend ~total () in
  let cap =
    match resolved with
    | Backend.Sparse | Backend.Symbolic -> max_group_size_sparse
    | _ -> max_group_size
  in
  let total = check_total ~cap total in
  let dims = Array.copy dims in
  let ptables =
    lazy
      ( Metrics.phase "sample-prep" @@ fun () ->
        Metrics.record_sampler_prep ();
        (* pass 1 tags every element with its coset id (int32, dropped
           once the buckets are filled); pass 2 counting-sorts *)
        let ids : (int, int) Hashtbl.t = Hashtbl.create 64 in
        let tag_id = Bytes.create (4 * total) in
        for idx = 0 to total - 1 do
          let t = f (State.decode dims idx) in
          let id =
            match Hashtbl.find_opt ids t with
            | Some id -> id
            | None ->
                let id = Hashtbl.length ids in
                Hashtbl.add ids t id;
                id
          in
          Bytes.set_int32_ne tag_id (4 * idx) (Int32.of_int id)
        done;
        let k = Hashtbl.length ids in
        let starts = Array.make (k + 1) 0 in
        for idx = 0 to total - 1 do
          let id = member tag_id idx in
          starts.(id + 1) <- starts.(id + 1) + 1
        done;
        for c = 0 to k - 1 do
          starts.(c + 1) <- starts.(c + 1) + starts.(c)
        done;
        let fill = Array.sub starts 0 k in
        let members = Bytes.create (4 * total) in
        (* ascending idx: every bucket comes out sorted, ready to be
           adopted directly as a sparse segment *)
        for idx = 0 to total - 1 do
          let id = member tag_id idx in
          Bytes.set_int32_ne members (4 * fill.(id)) (Int32.of_int idx);
          fill.(id) <- fill.(id) + 1
        done;
        { starts; members } )
  in
  {
    pdims = dims;
    pbackend = resolved;
    ptotal = total;
    pwires = List.init (Array.length dims) (fun i -> i);
    ptables;
  }

let prep_force p = ignore (Lazy.force p.ptables)
let prep_dims p = Array.copy p.pdims
let prep_backend p = p.pbackend
let prep_cosets p = Array.length (Lazy.force p.ptables).starts - 1

let prep_bytes p =
  (* Heap footprint in bytes of the prep's tables plus a small fixed
     overhead for the record and dims — the unit of the service cache's
     byte budget: 4 bytes per group element for [members], one word
     per coset for [starts], and each block's header. *)
  let word = Sys.word_size / 8 in
  let starts_words =
    if Lazy.is_val p.ptables then Array.length (Lazy.force p.ptables).starts
    else 2 (* unforced: the coset count is not known yet; at least one *)
  in
  (4 * p.ptotal) + (word * (starts_words + Array.length p.pdims + 16))

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

let sampler_of_prep p ~queries () =
  fun rng ->
    Query.tick queries;
    let { starts; members } = Lazy.force p.ptables in
    (* Measure the function register first: the outcome is f(x) for a
       uniform x, i.e. a coset chosen with probability |coset| / |A|.
       Drawing a uniform position in the concatenated buckets and
       taking its bucket implements exactly that. *)
    let c = coset_at starts (Random.State.int rng p.ptotal) in
    let lo = starts.(c) in
    let count = starts.(c + 1) - lo in
    Metrics.add_coset_visits count;
    let st =
      Metrics.phase "sample-prep" @@ fun () ->
      let idxs = Array.make count 0 in
      for i = 0 to count - 1 do
        idxs.(i) <- member members (lo + i)
      done;
      State.of_indices ~backend:p.pbackend p.pdims idxs
    in
    let st = Metrics.phase "fourier" (fun () -> Qft.forward st ~wires:p.pwires) in
    let outcome = Metrics.phase "measure" (fun () -> State.measure_all rng st) in
    if Metrics.tracing () then
      Metrics.trace "coset-round"
        [
          ("coset_size", string_of_int count);
          ("fourier_support", string_of_int (State.support_size st));
          ( "outcome",
            String.concat "," (List.map string_of_int (Array.to_list outcome)) );
        ];
    outcome

let sampler ?backend ~dims ~f ~queries () =
  sampler_of_prep (prep ?backend ~dims ~f ()) ~queries ()

let sample rng ~dims ~f ~queries = sampler ~dims ~f ~queries () rng

let sampler_with_support ?backend ~dims ~coset ~queries () =
  (* No [max_group_size] guard and no O(|A|) oracle expansion: the
     caller hands us the coset of a uniformly drawn point directly, so
     one round costs O(|coset|) state construction plus the sparse
     Fourier/measurement work.  This is what lifts instances whose
     total dimension exceeds even [max_group_size_sparse] — including
     registers whose total dimension does not fit in an int at all
     ([Z_2^200]-shaped dims), so only the wire dimensions are validated
     here and an unformable total ([None]) means "uncapped", never an
     error. *)
  ignore (Backend.total_of_opt dims : int option);
  let wires = List.init (Array.length dims) (fun i -> i) in
  fun rng ->
    Query.tick queries;
    let x0 = Array.map (fun d -> Random.State.int rng d) dims in
    let st, count =
      Metrics.phase "sample-prep" @@ fun () ->
      let members = coset x0 in
      (match members with
      | [] -> invalid_arg "Coset_state: coset function returned an empty coset"
      | _ :: _ -> ());
      (* Encode once, sort, and hand the segment to the backend whole:
         O(|coset| log |coset|) with no per-member boxing or hashing. *)
      let idxs = Array.of_list (List.map (State.encode dims) members) in
      Array.sort Int.compare idxs;
      let count = Array.length idxs in
      Metrics.add_coset_visits count;
      (State.of_indices ?backend dims idxs, count)
    in
    let st = Metrics.phase "fourier" (fun () -> Qft.forward st ~wires) in
    let outcome = Metrics.phase "measure" (fun () -> State.measure_all rng st) in
    if Metrics.tracing () then
      Metrics.trace "coset-round"
        [
          ("coset_size", string_of_int count);
          ("fourier_support", string_of_int (State.support_size st));
          ( "outcome",
            String.concat "," (List.map string_of_int (Array.to_list outcome)) );
        ];
    outcome

let sample_with_support rng ?backend ~dims ~coset ~queries () =
  sampler_with_support ?backend ~dims ~coset ~queries () rng

let sampler_of_subgroup ?backend ~sub ~queries () =
  (* The cryptographic-scale path over an already-canonicalised
     subgroup: one round is O(r^2) end to end on the symbolic backend —
     coset state by representative, full Fourier sweep by the
     closed-form rewrite, measurement by uniform annihilator sampling.
     Z_2^200 is as cheap as Z_2^2; there is no group-size cap anywhere.
     The annihilator solve is memoised inside [sub], so the per-sample
     work contains no normal-form computation at all — and because
     [sub] is a first-class value, the service layer caches it across
     requests (canonicalisation paid once per oracle).  Dense/sparse
     choices enumerate the coset and run the amplitude pipeline
     instead — the differential oracles the chi-squared gate compares
     against (Backend.Caps.symbolic_materialise bounds that
     enumeration). *)
  let dims = Backend_symbolic.Subgroup.dims sub in
  let choice =
    match backend with
    | Some c -> c
    | None -> (
        match Backend.default () with Backend.Auto -> Backend.Symbolic | c -> c)
  in
  let wires = List.init (Array.length dims) (fun i -> i) in
  fun rng ->
    Query.tick queries;
    let x0 = Array.map (fun d -> Random.State.int rng d) dims in
    let st =
      Metrics.phase "sample-prep" @@ fun () -> State.of_coset ~backend:choice sub ~rep:x0
    in
    let st = Metrics.phase "fourier" (fun () -> Qft.forward st ~wires) in
    let outcome = Metrics.phase "measure" (fun () -> State.measure_all rng st) in
    if Metrics.tracing () then
      Metrics.trace "coset-round"
        [
          ("coset_log2", Printf.sprintf "%.2f" (Backend_symbolic.Subgroup.order_log2 sub));
          ( "outcome",
            String.concat "," (List.map string_of_int (Array.to_list outcome)) );
        ];
    outcome

let sampler_with_subgroup ?backend ~dims ~subgroup ~queries () =
  let sub =
    Metrics.phase "sample-prep" @@ fun () ->
    Backend_symbolic.Subgroup.of_gens ~dims subgroup
  in
  sampler_of_subgroup ?backend ~sub ~queries ()

let sample_with_subgroup rng ?backend ~dims ~subgroup ~queries () =
  sampler_with_subgroup ?backend ~dims ~subgroup ~queries () rng

let sampler_state_valued ?backend ~dims ~f ~queries () =
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
     (tiny) bucket.  The table is mutex-guarded: the service layer
     batches concurrent requests over one sampler, so the memo must
     tolerate racing evaluations. *)
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
  sampler ?backend ~dims ~f:tag_of ~queries ()

let sample_full rng ?backend ~dims ~f ~queries () =
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
  Metrics.add_classical_evals total;
  let out_dim = max 1 (Hashtbl.length values) in
  let n = Array.length dims in
  let group_wires = List.init n (fun i -> i) in
  let st = State.uniform ?backend dims in
  let st = State.tensor st (State.create ?backend [| out_dim |]) in
  let st =
    State.apply_oracle_add st ~in_wires:group_wires ~out_wire:n
      ~f:(fun x -> tags.(State.encode dims x))
  in
  let st = Metrics.phase "fourier" (fun () -> Qft.forward st ~wires:group_wires) in
  let outcome, _ =
    Metrics.phase "measure" (fun () -> State.measure rng st ~wires:group_wires)
  in
  outcome

let annihilator_subgroup ~dims ys =
  let r = Array.length dims in
  let l = Array.fold_left Numtheory.Arith.lcm 1 dims in
  let rows = List.map (fun y -> Array.init r (fun i -> y.(i) * (l / dims.(i)))) ys in
  let m = Array.of_list rows in
  let gens =
    if Array.length m = 0 then List.init r (fun i -> Array.init r (fun j -> if i = j then 1 else 0))
    else
      Numtheory.Zmatrix.kernel_mod ~moduli:(Array.make (Array.length m) l) m
  in
  let reduced =
    List.map (fun g -> Array.init r (fun i -> Numtheory.Arith.emod g.(i) dims.(i))) gens
  in
  (* Drop duplicates and the zero vector for tidiness. *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun g ->
      let key = Array.to_list g in
      let zero = Array.for_all (fun v -> Int.equal v 0) g in
      if zero || Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    reduced
