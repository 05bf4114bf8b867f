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

   The backend runs the Fourier-sampling pipeline only: an index
   segment in, per-wire DFTs, a full-register draw out.  Every other
   amplitude-level operation is the dense backend's.

   Determinism contract (enforced by test_parallel.ml): every kernel is
   bit-for-bit identical at every job count.

   - The DFT sorts nothing.  The segment's blocks (entries sharing
     the digits above the wire) are contiguous; each block's fibres
     are numbered by merging its already-sorted rows, and its outputs
     are emitted in index order.  Chunks are whole blocks, or runs of
     one block's fibres, emitted in order; a block's outputs do not
     depend on how its fibres are split, so the segment is the same
     for every chunking.
   - The float reductions (norm², the measurement scan) are
     index-ordered chunk reductions with {!Parallel.reduction_chunks}
     geometry. *)

type t = {
  dims : int array;
  total : int;
  str : int array;
  n : int;  (* live entries; idx/re/im have length exactly n *)
  idx : int array;  (* idx.(0 .. n-1) strictly increasing *)
  re : float array;  (* unboxed amplitude planes, parallel to idx *)
  im : float array;
}

(* Amplitudes of modulus at most [prune_eps] are dropped after every
   unitary; the kernels compare squared moduli against [eps2], its
   square written as a literal so the comparison needs no load. *)
let prune_eps = 1e-12
let eps2 = 1e-24

(* Sample the support high-water mark after an operation settles. *)
let noted t =
  Metrics.raise_to Peak_support t.n;
  t

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

  let reserve b extra =
    while b.n + extra > Array.length b.idx do
      grow b
    done

  let push b i x y =
    if b.n = Array.length b.idx then grow b;
    b.idx.(b.n) <- i;
    b.re.(b.n) <- x;
    b.im.(b.n) <- y;
    b.n <- b.n + 1
end

(* ------------------------------------------------------------------ *)
(* Norm and pruning threshold                                          *)
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

(* Thresholding uses squared moduli — no sqrt, no boxing.  An entry is
   kept iff |amp|² > eps²; a dropped entry with a nonzero component
   still counts as pruned (even if its square underflowed). *)
let keeps x y = (x *. x) +. (y *. y) > eps2

(* hsp-lint: allow float-eq — exact nonzero test, not a tolerance *)
let is_nonzero x y = x <> 0.0 || y <> 0.0

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

(* The one constructor: adopt a sorted index segment, with the given
   amplitude planes or the uniform superposition. *)
let of_indices ?planes dims idxs =
  let total = Backend.total_of dims in
  let n = Array.length idxs in
  if n = 0 then invalid_arg "State.of_indices: empty support";
  let prev = ref (-1) in
  Array.iter
    (fun i ->
      if i < 0 || i >= total then invalid_arg "State.of_indices: index out of range";
      if i <= !prev then invalid_arg "State.of_indices: indices must be strictly increasing";
      prev := i)
    idxs;
  let re, im =
    match planes with
    | None -> (Array.make n (1.0 /. sqrt (float_of_int n)), Array.make n 0.0)
    | Some (re, im) ->
        if Array.length re <> n || Array.length im <> n then
          invalid_arg "State.of_indices: amplitude planes do not match the indices";
        (Array.copy re, Array.copy im)
  in
  let str = Backend.strides dims in
  noted { dims = Array.copy dims; total; str; n; idx = Array.copy idxs; re; im }

let dims t = Array.copy t.dims
let num_wires t = Array.length t.dims
let support_size t = t.n

let amplitudes t =
  if t.total > Backend.Caps.dense_state then
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

(* ------------------------------------------------------------------ *)
(* Fibre kernels                                                       *)
(* ------------------------------------------------------------------ *)

(* Concatenate per-chunk emission buffers in chunk order into a
   segment of exactly the emitted length. *)
let concat_chunks t (bufs : Ebuf.b array) =
  let m = Array.fold_left (fun acc (b : Ebuf.b) -> acc + b.Ebuf.n) 0 bufs in
  let idx = Array.make m 0 and re = Array.make m 0.0 and im = Array.make m 0.0 in
  let o = ref 0 in
  Array.iter
    (fun (b : Ebuf.b) ->
      Array.blit b.Ebuf.idx 0 idx !o b.Ebuf.n;
      Array.blit b.Ebuf.re 0 re !o b.Ebuf.n;
      Array.blit b.Ebuf.im 0 im !o b.Ebuf.n;
      o := !o + b.Ebuf.n)
    bufs;
  { t with n = m; idx; re; im }

(* ------------------------------------------------------------------ *)
(* The DFT: a single-wire fibre kernel without sorts                   *)
(* ------------------------------------------------------------------ *)

(* For a wire of stride s and dimension d, an index splits as
   hi * (s d) + digit * s + lo with lo < s.  The segment is sorted by
   index, so the entries sharing [hi] — one block — are contiguous, and
   inside a block they are ordered by (digit, lo): one row per populated
   digit, each row sorted by lo.  The block's fibres are its distinct lo
   values.  A k-way merge of the rows numbers them in increasing lo
   order, and after the transforms the outputs are emitted in (k, lo)
   order — which is index order — so nothing is ever sorted. *)

(* Entry positions where a new block starts, plus [n] at the end. *)
let block_starts idx n bsize =
  let count = ref 0 and bend = ref 0 in
  for e = 0 to n - 1 do
    let i = Array.unsafe_get idx e in
    if i >= !bend then begin
      incr count;
      bend := ((i / bsize) + 1) * bsize
    end
  done;
  let starts = Array.make (!count + 1) n in
  let b = ref 0 in
  bend := 0;
  for e = 0 to n - 1 do
    let i = Array.unsafe_get idx e in
    if i >= !bend then begin
      starts.(!b) <- e;
      incr b;
      bend := ((i / bsize) + 1) * bsize
    end
  done;
  starts

(* Visit a block's entries fibre by fibre: a k-way merge of its rows
   (row r holds block entries [rstart.(r), rstart.(r+1)), sorted by lo)
   over a binary heap keyed by (lo at the row's cursor, row).  Entries
   come out grouped by lo, increasing: fibre j is entries
   [order.(fstart.(j)) .. order.(fstart.(j+1) - 1)] and [los.(j)] is
   its lo.  Returns the fibre count. *)
let merge_rows ~nr ~rstart ~lo ~order ~fstart ~los ~heap ~cur =
  let less r1 r2 =
    let k1 = Array.unsafe_get lo (Array.unsafe_get cur r1)
    and k2 = Array.unsafe_get lo (Array.unsafe_get cur r2) in
    k1 < k2 || (k1 = k2 && r1 < r2)
  in
  let rec sift size i =
    let l = (2 * i) + 1 in
    if l < size then begin
      let c = if l + 1 < size && less heap.(l + 1) heap.(l) then l + 1 else l in
      if less heap.(c) heap.(i) then begin
        let x = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- x;
        sift size c
      end
    end
  in
  for r = 0 to nr - 1 do
    cur.(r) <- rstart.(r);
    heap.(r) <- r
  done;
  for i = (nr / 2) - 1 downto 0 do
    sift nr i
  done;
  let size = ref nr and nlo = ref 0 and t = ref 0 in
  while !size > 0 do
    let r = heap.(0) in
    let q = cur.(r) in
    let l = lo.(q) in
    if !nlo = 0 || not (Int.equal los.(!nlo - 1) l) then begin
      los.(!nlo) <- l;
      fstart.(!nlo) <- !t;
      incr nlo
    end;
    order.(!t) <- q;
    incr t;
    cur.(r) <- q + 1;
    if q + 1 = rstart.(r + 1) then begin
      decr size;
      heap.(0) <- heap.(!size)
    end;
    sift !size 0
  done;
  fstart.(!nlo) <- !t;
  !nlo

(* Split block [a, a + len) (first index [base]) into rows: row r holds
   block entries [rstart.(r), rstart.(r+1)); entry q gets its digit and
   lo.  One division per row, none per entry.  Returns the row count. *)
let split_rows idx ~a ~len ~base ~s ~rstart ~digit ~lo =
  let nr = ref 0 and rend = ref base and dg = ref 0 in
  for q = 0 to len - 1 do
    let i = idx.(a + q) in
    if i >= !rend then begin
      dg := (i - base) / s;
      rstart.(!nr) <- q;
      incr nr;
      rend := base + ((!dg + 1) * s)
    end;
    digit.(q) <- !dg;
    lo.(q) <- i - base - (!dg * s)
  done;
  rstart.(!nr) <- len;
  !nr

(* Chunk-local workspace of the fibre transforms: the fibre planes, the
   plan's scratch, and the kept outputs of a run of fibres, fibre-major,
   with the output's digit k in the index field. *)
type fibre_worker = {
  f_re : float array;
  f_im : float array;
  scratch : Fft.scratch;
  kept : Ebuf.b;
  mutable pruned : int;
}

let fibre_worker plan ~cap =
  let d = Fft.length plan in
  {
    f_re = Array.make d 0.0;
    f_im = Array.make d 0.0;
    scratch = Fft.scratch plan;
    kept = Ebuf.create cap;
    pruned = 0;
  }

(* The DFT of every populated fibre of [wire]; returns the new state and
   the populated-fibre count. *)
let dft_blocks t ~wire ~plan ~inverse =
  let d = t.dims.(wire) and s = t.str.(wire) in
  let idx = t.idx and src_re = t.re and src_im = t.im in
  let starts = block_starts idx t.n (s * d) in
  let nb = Array.length starts - 1 in
  (* Load fibre j of the block at entry [a] into [w]'s planes and
     transform it in place. *)
  let transform w ~a ~digit ~order ~fstart j =
    Array.fill w.f_re 0 d 0.0;
    Array.fill w.f_im 0 d 0.0;
    for u = fstart.(j) to fstart.(j + 1) - 1 do
      let q = order.(u) in
      w.f_re.(digit.(q)) <- src_re.(a + q);
      w.f_im.(digit.(q)) <- src_im.(a + q)
    done;
    Fft.exec plan ~inverse w.scratch ~off:0 ~stride:1 ~lanes:1 w.f_re w.f_im
  in
  (* Transform fibres [jlo, jhi) into [w.kept]; fibre j's outputs end
     at [fend.(j)]. *)
  let transform_run w ~a ~digit ~order ~fstart ~fend jlo jhi =
    w.kept.Ebuf.n <- 0;
    for j = jlo to jhi - 1 do
      transform w ~a ~digit ~order ~fstart j;
      for k = 0 to d - 1 do
        let x = w.f_re.(k) and y = w.f_im.(k) in
        if keeps x y then Ebuf.push w.kept k x y
        else if is_nonzero x y then w.pruned <- w.pruned + 1
      done;
      fend.(j) <- w.kept.Ebuf.n
    done
  in
  (* The chunks are whole blocks, or, when the segment is one block
     (always so on wire 0), runs of that block's fibres; one chunk per
     2048 entries, up to 8, so small segments pay no per-chunk
     workspace.  The geometry depends on the workload alone, as
     parallel.mli requires.  Blocks emit in block order and a block's
     outputs do not depend on how its fibres are split, so no chunking
     changes the result. *)
  let chunks = max 1 (min 8 (t.n / 2048)) in
  let split_fibres = nb = 1 in
  let parts =
    Parallel.map_chunks ~chunks 0 nb (fun blo bhi ->
        let maxlen = ref 1 in
        for b = blo to bhi - 1 do
          maxlen := max !maxlen (starts.(b + 1) - starts.(b))
        done;
        let maxlen = !maxlen in
        (* chunk-local work arrays: per block entry, per fibre (at most
           one per entry), per row (at most one per entry or digit) *)
        let lo = Array.make maxlen 0 and digit = Array.make maxlen 0 in
        let order = Array.make maxlen 0 and los = Array.make maxlen 0 in
        let fstart = Array.make (maxlen + 1) 0 and fend = Array.make maxlen 0 in
        let rows = min d maxlen in
        let rstart = Array.make (rows + 1) 0 in
        let heap = Array.make rows 0 and cur = Array.make rows 0 in
        let w = fibre_worker plan ~cap:64 in
        (* the count of each output digit k, offset by one *)
        let count = Array.make (d + 1) 0 in
        let out = Ebuf.create (starts.(bhi) - starts.(blo)) in
        let fibres = ref 0 and pruned = ref 0 in
        for b = blo to bhi - 1 do
          let a = starts.(b) and len = starts.(b + 1) - starts.(b) in
          let base = idx.(a) / (s * d) * (s * d) in
          let nr = split_rows idx ~a ~len ~base ~s ~rstart ~digit ~lo in
          let nlo =
            if s = 1 then begin
              (* last wire: lo is always 0, the block is one fibre *)
              for q = 0 to len - 1 do
                order.(q) <- q
              done;
              fstart.(0) <- 0;
              fstart.(1) <- len;
              los.(0) <- 0;
              1
            end
            else merge_rows ~nr ~rstart ~lo ~order ~fstart ~los ~heap ~cur
          in
          fibres := !fibres + nlo;
          if nlo = 1 then begin
            (* one fibre: k ascending is index order, emit directly *)
            transform w ~a ~digit ~order ~fstart 0;
            let base = base + los.(0) in
            for k = 0 to d - 1 do
              let x = w.f_re.(k) and y = w.f_im.(k) in
              if keeps x y then Ebuf.push out (base + (k * s)) x y
              else if is_nonzero x y then incr pruned
            done
          end
          else begin
            let runs =
              if split_fibres then
                Parallel.map_chunks ~chunks 0 nlo (fun jlo jhi ->
                    let w = fibre_worker plan ~cap:(fstart.(jhi) - fstart.(jlo)) in
                    transform_run w ~a ~digit ~order ~fstart ~fend jlo jhi;
                    (jlo, jhi, w))
              else begin
                transform_run w ~a ~digit ~order ~fstart ~fend 0 nlo;
                [| (0, nlo, w) |]
              end
            in
            (* counting pass: bucket the fibre-major outputs by k; fibres
               are visited in lo order, so each bucket comes out sorted
               and the block in (k, lo) = index order *)
            Array.fill count 0 (d + 1) 0;
            let m = ref 0 in
            Array.iter
              (fun (_, _, w) ->
                let kept = w.kept in
                for u = 0 to kept.Ebuf.n - 1 do
                  let k = kept.Ebuf.idx.(u) in
                  count.(k + 1) <- count.(k + 1) + 1
                done;
                m := !m + kept.Ebuf.n;
                pruned := !pruned + w.pruned;
                w.pruned <- 0)
              runs;
            for k = 1 to d do
              count.(k) <- count.(k) + count.(k - 1)
            done;
            Ebuf.reserve out !m;
            Array.iter
              (fun (jlo, jhi, w) ->
                let kept = w.kept in
                let u = ref 0 in
                for j = jlo to jhi - 1 do
                  let lo_j = base + los.(j) in
                  while !u < fend.(j) do
                    let k = kept.Ebuf.idx.(!u) in
                    let pos = out.Ebuf.n + count.(k) in
                    count.(k) <- count.(k) + 1;
                    out.Ebuf.idx.(pos) <- lo_j + (k * s);
                    out.Ebuf.re.(pos) <- kept.Ebuf.re.(!u);
                    out.Ebuf.im.(pos) <- kept.Ebuf.im.(!u);
                    incr u
                  done
                done)
              runs;
            out.Ebuf.n <- out.Ebuf.n + !m
          end
        done;
        (out, !fibres, !pruned))
  in
  Metrics.add Pruned_amps (Array.fold_left (fun acc (_, _, p) -> acc + p) 0 parts);
  ( noted (concat_chunks t (Array.map (fun (out, _, _) -> out) parts)),
    Array.fold_left (fun acc (_, f, _) -> acc + f) 0 parts )

let apply_dft ?plan t ~wire ~inverse =
  let plan = Fft.plan_or_build plan t.dims.(wire) in
  let st, fibres = dft_blocks t ~wire ~plan ~inverse in
  (* Only populated fibres are transformed — the count the dense
     backend's total/d upper-bounds. *)
  Metrics.add Dft_fibres fibres;
  st

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* Born-rule draw of the full register straight off the support: one
   populated basis index with probability |amp|², returned as its
   digits.  Never materialises the outcome space, so measuring a
   > 2^24-dimensional register is fine.  The weight scan is an
   index-ordered chunk reduction; the chosen chunk is then rescanned
   serially with the exact same per-chunk summation order, so the
   outcome is identical at every job count. *)
let measure_all rng t =
  if t.n = 0 then invalid_arg "State.measure_all: zero vector";
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
      if last >= 0 then last else invalid_arg "State.measure_all: zero vector"
    end
  in
  Backend.decode t.dims t.idx.(chosen)

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
