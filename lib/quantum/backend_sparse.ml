open Linalg

(* Support-sparse state vector on a sorted segment: three parallel flat
   arrays — basis indices (strictly increasing) plus unboxed re/im
   amplitude planes — instead of a hashtable of boxed Complex.t.  The
   flat layout gives the hot kernels the same properties the dense
   backend earned from its planes: no per-amplitude allocation, no
   pointer chasing, and contiguous index ranges that split naturally
   across the {!Parallel} domain pool.  Indices stay within OCaml's
   native int range (the total dimension is overflow-checked), so
   registers far beyond the dense 2^24 cap are representable as long as
   the states that actually arise keep small support.

   Determinism contract (enforced by test_parallel.ml): every kernel is
   bit-for-bit identical at every job count.

   - Fibre and relabelling kernels emit per-chunk output runs that are
     concatenated in chunk order; because runs are emitted in run order
     and entries within a run in a fixed order, the concatenated
     sequence — and hence the sorted segment rebuilt from it — cannot
     depend on where the chunk boundaries fall.
   - Sortedness is restored with {!Parallel.sort_perm} under total
     orders (ties broken by position), whose result is unique.
   - The float reductions (norm², probabilities, measurement scan) are
     index-ordered chunk reductions with {!Parallel.reduction_chunks}
     geometry — this also replaces the old hashtable-iteration-order
     summation, which was not schedule-invariant. *)

type t = {
  dims : int array;
  total : int;
  str : int array;
  n : int;  (* live entries; idx/re/im have length exactly n *)
  idx : int array;  (* idx.(0 .. n-1) strictly increasing *)
  re : float array;  (* unboxed amplitude planes, parallel to idx *)
  im : float array;
  eps : float;
      (* pruning threshold of THIS state, fixed at construction and
         carried through every derived state — a later change of the
         session default must not contaminate states already built *)
}

let prune_epsilon = Atomic.make 1e-12

let check_eps e =
  if e < 0.0 then invalid_arg "Backend_sparse: negative pruning epsilon";
  e

let set_prune_epsilon e = Atomic.set prune_epsilon (check_eps e)
let prune_eps () = Atomic.get prune_epsilon
let prune_eps_of t = t.eps

(* Sample the support high-water mark after an operation settles. *)
let noted t =
  Metrics.record_support t.n;
  t

let make_frame ?prune_eps:e dims =
  let total = Backend.total_of dims in
  let eps = match e with Some e -> check_eps e | None -> Atomic.get prune_epsilon in
  { dims = Array.copy dims; total; str = Backend.strides dims; n = 0; idx = [||]; re = [||]; im = [||]; eps }

(* ------------------------------------------------------------------ *)
(* Growable entry buffer (amplitudes kept as unboxed planes)           *)
(* ------------------------------------------------------------------ *)

module Ebuf = struct
  type b = {
    mutable idx : int array;
    mutable re : float array;
    mutable im : float array;
    mutable n : int;
  }

  let create cap =
    let cap = max 1 cap in
    { idx = Array.make cap 0; re = Array.make cap 0.0; im = Array.make cap 0.0; n = 0 }

  let grow b =
    let cap = 2 * Array.length b.idx in
    let idx = Array.make cap 0 and re = Array.make cap 0.0 and im = Array.make cap 0.0 in
    Array.blit b.idx 0 idx 0 b.n;
    Array.blit b.re 0 re 0 b.n;
    Array.blit b.im 0 im 0 b.n;
    b.idx <- idx;
    b.re <- re;
    b.im <- im

  let push b i x y =
    if b.n = Array.length b.idx then grow b;
    b.idx.(b.n) <- i;
    b.re.(b.n) <- x;
    b.im.(b.n) <- y;
    b.n <- b.n + 1
end

(* ------------------------------------------------------------------ *)
(* Builder: sorted segment + unsorted insertion buffer                 *)
(* ------------------------------------------------------------------ *)

(* Construction-time accumulator.  Entries land in a small unsorted
   insertion buffer; when the buffer outgrows a fixed fraction of the
   segment it is merge-compacted into it (sorted, duplicate indices
   summed).  Compaction cost is O(segment) and the segment grows by at
   least a constant factor between compactions, so building n entries
   costs O(n log n) total with O(log n) compactions — each one recorded
   in the {!Metrics} ledger. *)
module Builder = struct
  let min_buffer = 64
  let fraction = 4 (* compact when buffer > segment / fraction *)

  type b = {
    mutable s_idx : int array;
    mutable s_re : float array;
    mutable s_im : float array;
    mutable s_n : int;
    buf : Ebuf.b;
  }

  let create () =
    { s_idx = [||]; s_re = [||]; s_im = [||]; s_n = 0; buf = Ebuf.create min_buffer }

  let compact b =
    let u = b.buf in
    if u.Ebuf.n > 0 then begin
      Metrics.record_compaction ();
      (* Sort the buffer by (index, arrival order): the positional
         tie-break keeps duplicate summation left-to-right in arrival
         order, so the result never depends on how adds were batched. *)
      let perm = Array.init u.Ebuf.n (fun i -> i) in
      Array.sort
        (fun a b' ->
          let c = Int.compare u.Ebuf.idx.(a) u.Ebuf.idx.(b') in
          if c <> 0 then c else Int.compare a b')
        perm;
      let out_idx = Array.make (b.s_n + u.Ebuf.n) 0 in
      let out_re = Array.make (b.s_n + u.Ebuf.n) 0.0 in
      let out_im = Array.make (b.s_n + u.Ebuf.n) 0.0 in
      let o = ref 0 in
      let push i x y =
        if !o > 0 && Int.equal out_idx.(!o - 1) i then begin
          out_re.(!o - 1) <- out_re.(!o - 1) +. x;
          out_im.(!o - 1) <- out_im.(!o - 1) +. y
        end
        else begin
          out_idx.(!o) <- i;
          out_re.(!o) <- x;
          out_im.(!o) <- y;
          incr o
        end
      in
      let i = ref 0 and j = ref 0 in
      while !i < b.s_n || !j < u.Ebuf.n do
        let take_seg =
          !j >= u.Ebuf.n
          || (!i < b.s_n && b.s_idx.(!i) <= u.Ebuf.idx.(perm.(!j)))
          (* ties take the segment entry first: it is the older one *)
        in
        if take_seg then begin
          push b.s_idx.(!i) b.s_re.(!i) b.s_im.(!i);
          incr i
        end
        else begin
          let e = perm.(!j) in
          push u.Ebuf.idx.(e) u.Ebuf.re.(e) u.Ebuf.im.(e);
          incr j
        end
      done;
      b.s_idx <- out_idx;
      b.s_re <- out_re;
      b.s_im <- out_im;
      b.s_n <- !o;
      u.Ebuf.n <- 0
    end

  let add b i x y =
    Ebuf.push b.buf i x y;
    if b.buf.Ebuf.n >= max min_buffer (b.s_n / fraction) then compact b

  let finish b =
    compact b;
    ( Array.sub b.s_idx 0 b.s_n,
      Array.sub b.s_re 0 b.s_n,
      Array.sub b.s_im 0 b.s_n,
      b.s_n )
end

(* ------------------------------------------------------------------ *)
(* Norms and pruning                                                   *)
(* ------------------------------------------------------------------ *)

(* Index-ordered chunk reduction: partial sums are combined in chunk
   order and the chunk count is fixed by the segment length alone, so
   the result is the same at every job count. *)
let norm2 t =
  if t.n = 0 then 0.0
  else begin
    let nchunks = Parallel.reduction_chunks ~slot_words:1 t.n in
    let partials =
      Parallel.map_chunks ~chunks:nchunks 0 t.n (fun lo hi ->
          Cvec.norm2_planes ~re:t.re ~im:t.im ~lo ~hi)
    in
    Array.fold_left ( +. ) 0.0 partials
  end

let norm t = sqrt (norm2 t)

let normalize t =
  let nrm = norm t in
  if nrm < Cvec.zero_norm_floor then invalid_arg "State: zero vector";
  if Float.abs (nrm -. 1.0) < Cvec.unit_norm_tol then t
  else begin
    let re = Array.copy t.re and im = Array.copy t.im in
    let s = 1.0 /. nrm in
    Parallel.parallel_for 0 t.n (fun lo hi -> Cvec.scale_planes s ~re ~im ~lo ~hi);
    { t with re; im }
  end

(* Thresholding uses squared moduli — no sqrt, no boxing.  An entry is
   kept iff |amp|² > eps²; a dropped entry with a nonzero component
   still counts as pruned (even if its square underflowed). *)
let keeps ~eps2 x y = (x *. x) +. (y *. y) > eps2

(* hsp-lint: allow float-eq — exact nonzero test, not a tolerance *)
let is_nonzero x y = x <> 0.0 || y <> 0.0

(* Re-filter a settled segment through the state's threshold
   (duplicates summed during construction may have landed below it).
   An order-preserving filter keeps the segment sorted. *)
let prune t =
  let eps2 = t.eps *. t.eps in
  let keep = Array.make t.n false in
  let m = ref 0 in
  for e = 0 to t.n - 1 do
    let x = t.re.(e) and y = t.im.(e) in
    if keeps ~eps2 x y then begin
      keep.(e) <- true;
      incr m
    end
    else if is_nonzero x y then Metrics.record_pruned ()
  done;
  if !m = t.n then t
  else begin
    let idx = Array.make !m 0 and re = Array.make !m 0.0 and im = Array.make !m 0.0 in
    let o = ref 0 in
    for e = 0 to t.n - 1 do
      if keep.(e) then begin
        idx.(!o) <- t.idx.(e);
        re.(!o) <- t.re.(e);
        im.(!o) <- t.im.(e);
        incr o
      end
    done;
    { t with n = !m; idx; re; im }
  end

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let create ?prune_eps dims =
  let t = make_frame ?prune_eps dims in
  noted { t with n = 1; idx = [| 0 |]; re = [| 1.0 |]; im = [| 0.0 |] }

let of_basis ?prune_eps dims x =
  let t = make_frame ?prune_eps dims in
  noted { t with n = 1; idx = [| Backend.encode dims x |]; re = [| 1.0 |]; im = [| 0.0 |] }

let of_amplitudes ?prune_eps dims v =
  let t = make_frame ?prune_eps dims in
  if Cvec.dim v <> t.total then invalid_arg "State.of_amplitudes: dimension mismatch";
  let eps2 = t.eps *. t.eps in
  let b = Ebuf.create 64 in
  Array.iteri
    (fun idx z ->
      let x = z.Complex.re and y = z.Complex.im in
      if keeps ~eps2 x y then Ebuf.push b idx x y
      else if is_nonzero x y then Metrics.record_pruned ())
    v;
  let t =
    {
      t with
      n = b.Ebuf.n;
      idx = Array.sub b.Ebuf.idx 0 b.Ebuf.n;
      re = Array.sub b.Ebuf.re 0 b.Ebuf.n;
      im = Array.sub b.Ebuf.im 0 b.Ebuf.n;
    }
  in
  noted (normalize t)

let of_support ?prune_eps dims entries =
  let t = make_frame ?prune_eps dims in
  (match entries with [] -> invalid_arg "State.of_support: empty support" | _ :: _ -> ());
  let b = Builder.create () in
  List.iter
    (fun (x, a) -> Builder.add b (Backend.encode dims x) a.Complex.re a.Complex.im)
    entries;
  let idx, re, im, n = Builder.finish b in
  noted (prune (normalize { t with n; idx; re; im }))

let of_indices ?prune_eps dims idxs =
  let t = make_frame ?prune_eps dims in
  let n = Array.length idxs in
  if n = 0 then invalid_arg "State.of_indices: empty support";
  let prev = ref (-1) in
  Array.iter
    (fun i ->
      if i < 0 || i >= t.total then invalid_arg "State.of_indices: index out of range";
      if i <= !prev then invalid_arg "State.of_indices: indices must be strictly increasing";
      prev := i)
    idxs;
  let a = 1.0 /. sqrt (float_of_int n) in
  noted { t with n; idx = Array.copy idxs; re = Array.make n a; im = Array.make n 0.0 }

let dims t = Array.copy t.dims
let num_wires t = Array.length t.dims
let total_dim t = t.total
let support_size t = t.n

let amplitudes t =
  if t.total > Backend.dense_cap then
    invalid_arg "State.amplitudes: register too large to materialise densely";
  let v = Cvec.make t.total in
  for e = 0 to t.n - 1 do
    v.(t.idx.(e)) <- Cx.make t.re.(e) t.im.(e)
  done;
  v

let amp_at t i =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.idx.(mid) < i then lo := mid + 1 else hi := mid
  done;
  if !lo < t.n && Int.equal t.idx.(!lo) i then Cx.make t.re.(!lo) t.im.(!lo) else Cx.zero

(* Visits entries in increasing index order (the segment is sorted). *)
let iter_nonzero t f =
  for e = 0 to t.n - 1 do
    f t.idx.(e) (Cx.make t.re.(e) t.im.(e))
  done

let tensor a b =
  (* The product inherits the left operand's pruning threshold.  Output
     entry (i, j) lands at position i*b.n + j with index
     a.idx(i)*b.total + b.idx(j): row-major in two sorted factors, so
     the result is already sorted — and the writes are elementwise
     disjoint, hence job-count-invariant under any chunking. *)
  let dims = Array.append a.dims b.dims in
  let total = Backend.total_of dims in
  let n = a.n * b.n in
  let idx = Array.make (max 1 n) 0 in
  let re = Array.make (max 1 n) 0.0 and im = Array.make (max 1 n) 0.0 in
  let bn = b.n in
  Parallel.parallel_for 0 a.n (fun lo hi ->
      for i = lo to hi - 1 do
        let ia = a.idx.(i) * b.total in
        let ar = a.re.(i) and ai = a.im.(i) in
        let base = i * bn in
        for j = 0 to bn - 1 do
          idx.(base + j) <- ia + b.idx.(j);
          re.(base + j) <- (ar *. b.re.(j)) -. (ai *. b.im.(j));
          im.(base + j) <- (ar *. b.im.(j)) +. (ai *. b.re.(j))
        done
      done);
  let t =
    {
      dims;
      total;
      str = Backend.strides dims;
      n;
      idx = (if n = Array.length idx then idx else Array.sub idx 0 n);
      re = (if n = Array.length re then re else Array.sub re 0 n);
      im = (if n = Array.length im then im else Array.sub im 0 n);
      eps = a.eps;
    }
  in
  noted (prune t)

let uniform ?prune_eps dims =
  let t = make_frame ?prune_eps dims in
  if t.total > Backend.dense_cap then
    invalid_arg "State.uniform: support is the whole register; use the dense backend";
  let a = 1.0 /. sqrt (float_of_int t.total) in
  noted
    {
      t with
      n = t.total;
      idx = Array.init t.total (fun i -> i);
      re = Array.make t.total a;
      im = Array.make t.total 0.0;
    }

(* ------------------------------------------------------------------ *)
(* Fibre kernels                                                       *)
(* ------------------------------------------------------------------ *)

(* Gather the support into fibres over the selected wires: entry e
   splits into a base index (selected digits zeroed) and a sub-index s.
   Sorting the entries by (base, s) — a total order, since distinct
   entries have distinct (base, s) — brings every populated fibre
   together as one contiguous run of the permutation. *)
let fibre_runs t ~wires_arr ~sub_dims =
  let k = Array.length wires_arr in
  let base = Array.make t.n 0 and sub = Array.make t.n 0 in
  let str = t.str and dims = t.dims and idx = t.idx in
  Parallel.parallel_for 0 t.n (fun lo hi ->
      for e = lo to hi - 1 do
        let i0 = Array.unsafe_get idx e in
        let b = ref i0 and s = ref 0 in
        for i = 0 to k - 1 do
          let w = Array.unsafe_get wires_arr i in
          let digit = i0 / Array.unsafe_get str w mod Array.unsafe_get dims w in
          b := !b - (digit * Array.unsafe_get str w);
          s := (!s * Array.unsafe_get sub_dims i) + digit
        done;
        Array.unsafe_set base e !b;
        Array.unsafe_set sub e !s
      done);
  let perm =
    Parallel.sort_perm t.n ~cmp:(fun a b' ->
        let c = Int.compare base.(a) base.(b') in
        if c <> 0 then c else Int.compare sub.(a) sub.(b'))
  in
  let nruns = ref 0 in
  let last = ref (-1) in
  for p = 0 to t.n - 1 do
    let b = base.(perm.(p)) in
    if not (Int.equal b !last) then begin
      incr nruns;
      last := b
    end
  done;
  let starts = Array.make (!nruns + 1) t.n in
  let r = ref 0 and last = ref (-1) in
  for p = 0 to t.n - 1 do
    let b = base.(perm.(p)) in
    if not (Int.equal b !last) then begin
      starts.(!r) <- p;
      incr r;
      last := b
    end
  done;
  (base, sub, perm, starts, !nruns)

(* Rebuild a sorted segment from per-chunk emission buffers.  The
   buffers are concatenated in chunk order; the concatenated sequence
   is independent of the chunk boundaries (runs are emitted in run
   order, entries within a run in a fixed order), and the final sort —
   needed when fibres interleave in index space — permutes distinct
   indices under a total order, so the segment is job-count-invariant
   bit for bit. *)
let sorted_of_chunks t (bufs : Ebuf.b array) =
  let m = Array.fold_left (fun acc (b : Ebuf.b) -> acc + b.Ebuf.n) 0 bufs in
  let idx = Array.make (max 1 m) 0 in
  let re = Array.make (max 1 m) 0.0 and im = Array.make (max 1 m) 0.0 in
  let o = ref 0 in
  Array.iter
    (fun (b : Ebuf.b) ->
      Array.blit b.Ebuf.idx 0 idx !o b.Ebuf.n;
      Array.blit b.Ebuf.re 0 re !o b.Ebuf.n;
      Array.blit b.Ebuf.im 0 im !o b.Ebuf.n;
      o := !o + b.Ebuf.n)
    bufs;
  let sorted = ref true in
  for e = 1 to m - 1 do
    if idx.(e - 1) >= idx.(e) then sorted := false
  done;
  if !sorted then
    {
      t with
      n = m;
      idx = (if Int.equal m (Array.length idx) then idx else Array.sub idx 0 m);
      re = (if Int.equal m (Array.length re) then re else Array.sub re 0 m);
      im = (if Int.equal m (Array.length im) then im else Array.sub im 0 m);
    }
  else begin
    let perm = Parallel.sort_perm m ~cmp:(fun a b -> Int.compare idx.(a) idx.(b)) in
    let idx' = Array.make m 0 and re' = Array.make m 0.0 and im' = Array.make m 0.0 in
    Parallel.parallel_for 0 m (fun lo hi ->
        for p = lo to hi - 1 do
          let e = perm.(p) in
          idx'.(p) <- idx.(e);
          re'.(p) <- re.(e);
          im'.(p) <- im.(e)
        done);
    { t with n = m; idx = idx'; re = re'; im = im' }
  end

(* Offset of sub-index [s] relative to a base index. *)
let sub_offsets ~wires_arr ~sub_dims ~str =
  let k = Array.length wires_arr in
  let sub_total = Array.fold_left ( * ) 1 sub_dims in
  Array.init sub_total (fun s ->
      let rem = ref s and off = ref 0 in
      for i = k - 1 downto 0 do
        off := !off + (!rem mod sub_dims.(i) * str.(wires_arr.(i)));
        rem := !rem / sub_dims.(i)
      done;
      !off)

let apply_wires t ~wires m =
  let n = Array.length t.dims in
  List.iter (fun w -> if w < 0 || w >= n then invalid_arg "State.apply_wires: bad wire") wires;
  let wires_arr = Array.of_list wires in
  let seen = Array.make n false in
  Array.iter
    (fun w ->
      if seen.(w) then invalid_arg "State.apply_wires: duplicate wire";
      seen.(w) <- true)
    wires_arr;
  let sub_dims = Array.map (fun w -> t.dims.(w)) wires_arr in
  let sub_total = Array.fold_left ( * ) 1 sub_dims in
  if Cmat.rows m <> sub_total || Cmat.cols m <> sub_total then
    invalid_arg "State.apply_wires: matrix dimension mismatch";
  let base, sub, perm, starts, nruns = fibre_runs t ~wires_arr ~sub_dims in
  (* Only populated fibres are transformed — the count the dense
     backend's rest_total upper-bounds. *)
  Metrics.add_gate_fibres nruns;
  let offsets = sub_offsets ~wires_arr ~sub_dims ~str:t.str in
  (* Emit each fibre's outputs in increasing-offset order so runs whose
     index ranges do not interleave come out globally sorted (checked
     in sorted_of_chunks, which then skips the sort). *)
  let order = Array.init sub_total (fun s -> s) in
  Array.sort (fun a b -> Int.compare offsets.(a) offsets.(b)) order;
  let m_re, m_im = Cmat.planes m in
  let eps2 = t.eps *. t.eps in
  let src_re = t.re and src_im = t.im in
  let nchunks = Parallel.reduction_chunks ~slot_words:1 nruns in
  let bufs =
    Parallel.map_chunks ~chunks:nchunks 0 nruns (fun rlo rhi ->
        (* chunk-local scratch: gathered fibre planes and their image *)
        let out = Ebuf.create (min ((rhi - rlo) * sub_total) (1 lsl 16)) in
        let f_re = Array.make sub_total 0.0 and f_im = Array.make sub_total 0.0 in
        let y_re = Array.make sub_total 0.0 and y_im = Array.make sub_total 0.0 in
        for r = rlo to rhi - 1 do
          Array.fill f_re 0 sub_total 0.0;
          Array.fill f_im 0 sub_total 0.0;
          let b = base.(perm.(starts.(r))) in
          for p = starts.(r) to starts.(r + 1) - 1 do
            let e = perm.(p) in
            f_re.(sub.(e)) <- src_re.(e);
            f_im.(sub.(e)) <- src_im.(e)
          done;
          Cmat.apply_planes ~rows:sub_total ~cols:sub_total ~m_re ~m_im ~x_re:f_re ~x_im:f_im
            ~y_re ~y_im;
          for oi = 0 to sub_total - 1 do
            let s = order.(oi) in
            let x = y_re.(s) and y = y_im.(s) in
            if keeps ~eps2 x y then Ebuf.push out (b + offsets.(s)) x y
            else if is_nonzero x y then Metrics.record_pruned ()
          done
        done;
        out)
  in
  noted (sorted_of_chunks t bufs)

let apply_dft t ~wire ~inverse =
  let d = t.dims.(wire) in
  let stride = t.str.(wire) in
  let base, sub, perm, starts, nruns = fibre_runs t ~wires_arr:[| wire |] ~sub_dims:[| d |] in
  (* Only populated fibres are transformed — the count the dense
     backend's total/d upper-bounds. *)
  Metrics.add_dft_fibres nruns;
  let plan = Fft.plan d in
  let eps2 = t.eps *. t.eps in
  let src_re = t.re and src_im = t.im in
  let nchunks = Parallel.reduction_chunks ~slot_words:1 nruns in
  let bufs =
    Parallel.map_chunks ~chunks:nchunks 0 nruns (fun rlo rhi ->
        let out = Ebuf.create (min ((rhi - rlo) * d) (1 lsl 16)) in
        (* chunk-local fibre planes and scratch; the plan is shared *)
        let scratch = Fft.scratch plan in
        let f_re = Array.make d 0.0 and f_im = Array.make d 0.0 in
        for r = rlo to rhi - 1 do
          Array.fill f_re 0 d 0.0;
          Array.fill f_im 0 d 0.0;
          let b = base.(perm.(starts.(r))) in
          for p = starts.(r) to starts.(r + 1) - 1 do
            let e = perm.(p) in
            f_re.(sub.(e)) <- src_re.(e);
            f_im.(sub.(e)) <- src_im.(e)
          done;
          Fft.exec plan ~inverse scratch f_re f_im;
          (* k ascending and stride > 0: each run emits in increasing
             index order *)
          for k = 0 to d - 1 do
            let x = f_re.(k) and y = f_im.(k) in
            if keeps ~eps2 x y then Ebuf.push out (b + (k * stride)) x y
            else if is_nonzero x y then Metrics.record_pruned ()
          done
        done;
        out)
  in
  noted (sorted_of_chunks t bufs)

(* ------------------------------------------------------------------ *)
(* Relabelling kernels                                                 *)
(* ------------------------------------------------------------------ *)

let apply_basis_map t f =
  let nw = Array.length t.dims in
  let dims = t.dims and str = t.str and idx = t.idx in
  (* Phase 1 (parallel): evaluate the map.  The digit extractor walks
     the precomputed strides into a chunk-local scratch tuple instead
     of allocating a fresh Backend.decode array per entry; [f] must not
     retain its argument (State.apply_basis_map documents this). *)
  let target = Array.make t.n 0 in
  Parallel.parallel_for 0 t.n (fun lo hi ->
      let x = Array.make nw 0 in
      for e = lo to hi - 1 do
        let i0 = Array.unsafe_get idx e in
        for i = 0 to nw - 1 do
          Array.unsafe_set x i (i0 / Array.unsafe_get str i mod Array.unsafe_get dims i)
        done;
        target.(e) <- Backend.encode dims (f x)
      done);
  (* Phase 2: deterministic parallel merge sort by target index (ties
     broken by position so the comparator is total; ties only exist
     when f collides on the support, caught right below). *)
  let perm =
    Parallel.sort_perm t.n ~cmp:(fun a b ->
        let c = Int.compare target.(a) target.(b) in
        if c <> 0 then c else Int.compare a b)
  in
  (* Injectivity is checkable only on the support: two populated
     indices mapping to the same image is a definite non-bijection;
     collisions with unpopulated indices are invisible (they carry zero
     amplitude, so the state is still correct whenever f really is a
     bijection, which the dense backend fully verifies). *)
  for p = 1 to t.n - 1 do
    if Int.equal target.(perm.(p - 1)) target.(perm.(p)) then
      invalid_arg "State.apply_basis_map: not a bijection"
  done;
  let idx' = Array.make t.n 0 and re' = Array.make t.n 0.0 and im' = Array.make t.n 0.0 in
  Parallel.parallel_for 0 t.n (fun lo hi ->
      for p = lo to hi - 1 do
        let e = perm.(p) in
        idx'.(p) <- target.(e);
        re'.(p) <- t.re.(e);
        im'.(p) <- t.im.(e)
      done);
  noted { t with idx = idx'; re = re'; im = im' }

let apply_oracle_add t ~in_wires ~out_wire ~f =
  let d = t.dims.(out_wire) in
  let ins = Array.of_list in_wires in
  apply_basis_map t (fun x ->
      let input = Array.map (fun w -> x.(w)) ins in
      let v = f input in
      if v < 0 || v >= d then invalid_arg "State.apply_oracle_add: oracle value out of range";
      let y = Array.copy x in
      y.(out_wire) <- (x.(out_wire) + v) mod d;
      y)

(* ------------------------------------------------------------------ *)
(* Probabilities and measurement                                       *)
(* ------------------------------------------------------------------ *)

let probabilities t ~wires =
  let wires_arr = Array.of_list wires in
  let k = Array.length wires_arr in
  let sub_dims = Array.map (fun w -> t.dims.(w)) wires_arr in
  let sub_total = Backend.total_of sub_dims in
  if sub_total > Backend.dense_cap then
    invalid_arg "State.probabilities: outcome space too large to materialise densely";
  let sub_str = Backend.strides sub_dims in
  let str = t.str and dims = t.dims and idx = t.idx in
  let src_re = t.re and src_im = t.im in
  (* Per-chunk partial outcome arrays combined in chunk order, chunk
     count fixed by (support, outcome space): index-ordered float sums
     at every job count — unlike the old hashtable iteration. *)
  let nchunks = Parallel.reduction_chunks ~slot_words:sub_total (max 1 t.n) in
  let partials =
    Parallel.map_chunks ~chunks:nchunks 0 t.n (fun lo hi ->
        let p = Array.make sub_total 0.0 in
        for e = lo to hi - 1 do
          let i0 = Array.unsafe_get idx e in
          let o = ref 0 in
          for i = 0 to k - 1 do
            let w = Array.unsafe_get wires_arr i in
            o :=
              !o
              + (i0 / Array.unsafe_get str w mod Array.unsafe_get dims w)
                * Array.unsafe_get sub_str i
          done;
          let x = Array.unsafe_get src_re e and y = Array.unsafe_get src_im e in
          let o = !o in
          Array.unsafe_set p o (Array.unsafe_get p o +. (x *. x) +. (y *. y))
        done;
        p)
  in
  let probs = Array.make sub_total 0.0 in
  Array.iter
    (fun p ->
      for o = 0 to sub_total - 1 do
        probs.(o) <- probs.(o) +. p.(o)
      done)
    partials;
  probs

(* Born-rule sampling straight off the support: draw one populated
   basis index with probability |amp|² and project onto its selected
   digits.  Never materialises the outcome space, so measuring all
   wires of a > 2^24-dimensional register is fine.  The weight scan is
   an index-ordered chunk reduction; the chosen chunk is then rescanned
   serially with the exact same per-chunk summation order, so the
   outcome is identical at every job count. *)
let measure rng t ~wires =
  if t.n = 0 then invalid_arg "State.measure: zero vector";
  let nchunks = Parallel.reduction_chunks ~slot_words:1 t.n in
  let src_re = t.re and src_im = t.im in
  let stats =
    Parallel.map_chunks ~chunks:nchunks 0 t.n (fun lo hi ->
        let acc = ref 0.0 and last = ref (-1) in
        for e = lo to hi - 1 do
          let x = Array.unsafe_get src_re e and y = Array.unsafe_get src_im e in
          let p = (x *. x) +. (y *. y) in
          if p > 0.0 then last := e;
          acc := !acc +. p
        done;
        (!acc, !last))
  in
  let w = Array.fold_left (fun acc (s, _) -> acc +. s) 0.0 stats in
  let r = Random.State.float rng w in
  let nchunks = Array.length stats in
  let chosen = ref (-1) in
  let prefix = ref 0.0 in
  (try
     for c = 0 to nchunks - 1 do
       let s, _ = stats.(c) in
       if r < !prefix +. s then begin
         (* rescan this chunk: its running sum revisits the exact float
            sequence the parallel pass produced, so the entry found is
            the same one at every job count and the loop cannot fall
            off the end (r < prefix + s holds at the last entry) *)
         let lo = Parallel.chunk_bound ~lo:0 ~hi:t.n ~nchunks c
         and hi = Parallel.chunk_bound ~lo:0 ~hi:t.n ~nchunks (c + 1) in
         let acc = ref 0.0 in
         for e = lo to hi - 1 do
           let x = src_re.(e) and y = src_im.(e) in
           acc := !acc +. ((x *. x) +. (y *. y));
           if !chosen < 0 && r < !prefix +. !acc then chosen := e
         done;
         raise Exit
       end
       else prefix := !prefix +. s
     done
   with Exit -> ());
  (* Floating-point rounding can leave r outside every chunk; the
     fallback must carry mass — an all-zero support (pruning ate
     everything) is an error, never a silent arbitrary outcome. *)
  let chosen =
    if !chosen >= 0 then !chosen
    else begin
      let last = Array.fold_left (fun acc (_, l) -> max acc l) (-1) stats in
      if last >= 0 then last else invalid_arg "State.measure: zero vector"
    end
  in
  let wires_arr = Array.of_list wires in
  let k = Array.length wires_arr in
  let chosen_idx = t.idx.(chosen) in
  let outcome = Array.map (fun w -> chosen_idx / t.str.(w) mod t.dims.(w)) wires_arr in
  (* Keep entries whose selected digits all equal the outcome: an
     order-preserving filter, so concatenating the per-chunk survivors
     in chunk order keeps the segment sorted whatever the chunking. *)
  let str = t.str and dims = t.dims and idx = t.idx in
  let bufs =
    Parallel.map_chunks ~chunks:nchunks 0 t.n (fun lo hi ->
        let out = Ebuf.create 64 in
        for e = lo to hi - 1 do
          let i0 = idx.(e) in
          let keep = ref true in
          for i = 0 to k - 1 do
            let w = wires_arr.(i) in
            if not (Int.equal (i0 / str.(w) mod dims.(w)) outcome.(i)) then keep := false
          done;
          if !keep then Ebuf.push out i0 src_re.(e) src_im.(e)
        done;
        out)
  in
  (outcome, noted (normalize (sorted_of_chunks t bufs)))

(* ------------------------------------------------------------------ *)
(* Comparison and printing                                             *)
(* ------------------------------------------------------------------ *)

let approx_equal ?(eps = 1e-9) a b =
  Backend.dims_equal a.dims b.dims
  && begin
       (* two-pointer sweep over both sorted segments: union compare *)
       let ok = ref true in
       let i = ref 0 and j = ref 0 in
       while !ok && (!i < a.n || !j < b.n) do
         let compare_here ca cb =
           if not (Cx.approx_equal ~eps ca cb) then ok := false
         in
         if !j >= b.n || (!i < a.n && a.idx.(!i) < b.idx.(!j)) then begin
           compare_here (Cx.make a.re.(!i) a.im.(!i)) Cx.zero;
           incr i
         end
         else if !i >= a.n || b.idx.(!j) < a.idx.(!i) then begin
           compare_here Cx.zero (Cx.make b.re.(!j) b.im.(!j));
           incr j
         end
         else begin
           compare_here (Cx.make a.re.(!i) a.im.(!i)) (Cx.make b.re.(!j) b.im.(!j));
           incr i;
           incr j
         end
       done;
       !ok
     end

let pp fmt t =
  Format.fprintf fmt "@[<v>sparse state over dims [%s], %d/%d nonzero@,"
    (String.concat "; " (Array.to_list (Array.map string_of_int t.dims)))
    t.n t.total;
  for e = 0 to t.n - 1 do
    Format.fprintf fmt "%d: %a@," t.idx.(e) Cx.pp (Cx.make t.re.(e) t.im.(e))
  done;
  Format.fprintf fmt "@]"
