type t = int array array

let identity n = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0))
let copy a = Array.map Array.copy a
let rows a = Array.length a
let cols a = if Array.length a = 0 then 0 else Array.length a.(0)

let mul a b =
  let r = rows a and n = cols a and c = cols b in
  if rows b <> n then invalid_arg "Zmatrix.mul: dimension mismatch";
  Array.init r (fun i ->
      Array.init c (fun j ->
          let s = ref 0 in
          for k = 0 to n - 1 do
            s := !s + (a.(i).(k) * b.(k).(j))
          done;
          !s))

let equal a b =
  rows a = rows b && cols a = cols b
  && begin
       let ok = ref true in
       for i = 0 to rows a - 1 do
         for j = 0 to cols a - 1 do
           if a.(i).(j) <> b.(i).(j) then ok := false
         done
       done;
       !ok
     end

(* --- Smith normal form ------------------------------------------------ *)

(* Elementary operations applied simultaneously to [d] and the
   accumulating unimodular transforms [u] (row ops) and [v] (col ops). *)

let swap_rows d u i j =
  if i <> j then begin
    let t = d.(i) in
    d.(i) <- d.(j);
    d.(j) <- t;
    let t = u.(i) in
    u.(i) <- u.(j);
    u.(j) <- t
  end

let swap_cols d v i j =
  if i <> j then begin
    for r = 0 to Array.length d - 1 do
      let t = d.(r).(i) in
      d.(r).(i) <- d.(r).(j);
      d.(r).(j) <- t
    done;
    for r = 0 to Array.length v - 1 do
      let t = v.(r).(i) in
      v.(r).(i) <- v.(r).(j);
      v.(r).(j) <- t
    done
  end

(* row i <- row i + k * row j *)
let addmul_row d u i j k =
  if k <> 0 then begin
    let di = d.(i) and dj = d.(j) in
    for c = 0 to Array.length di - 1 do
      di.(c) <- di.(c) + (k * dj.(c))
    done;
    let ui = u.(i) and uj = u.(j) in
    for c = 0 to Array.length ui - 1 do
      ui.(c) <- ui.(c) + (k * uj.(c))
    done
  end

(* col i <- col i + k * col j *)
let addmul_col d v i j k =
  if k <> 0 then begin
    for r = 0 to Array.length d - 1 do
      d.(r).(i) <- d.(r).(i) + (k * d.(r).(j))
    done;
    for r = 0 to Array.length v - 1 do
      v.(r).(i) <- v.(r).(i) + (k * v.(r).(j))
    done
  end

let negate_row d u i =
  Array.iteri (fun c x -> d.(i).(c) <- -x) (Array.copy d.(i));
  Array.iteri (fun c x -> u.(i).(c) <- -x) (Array.copy u.(i))

let snf a =
  let r = rows a and c = cols a in
  let d = copy a in
  let u = identity r and v = identity c in
  let n = min r c in
  for t = 0 to n - 1 do
    (* Find a pivot: the nonzero entry of smallest magnitude in the
       trailing submatrix, brought to (t, t); then clear its row and
       column, restarting whenever a remainder reduces the pivot. *)
    let continue_ = ref true in
    while !continue_ do
      (* locate minimal nonzero entry *)
      let best = ref None in
      for i = t to r - 1 do
        for j = t to c - 1 do
          let x = abs d.(i).(j) in
          if x <> 0 then
            match !best with
            | Some (bx, _, _) when bx <= x -> ()
            | _ -> best := Some (x, i, j)
        done
      done;
      match !best with
      | None -> continue_ := false (* trailing block is zero *)
      | Some (_, pi, pj) ->
          swap_rows d u t pi;
          swap_cols d v t pj;
          if d.(t).(t) < 0 then negate_row d u t;
          let p = d.(t).(t) in
          (* reduce column t *)
          let dirty = ref false in
          for i = t + 1 to r - 1 do
            if d.(i).(t) <> 0 then begin
              let q = d.(i).(t) / p in
              addmul_row d u i t (-q);
              if d.(i).(t) <> 0 then dirty := true
            end
          done;
          (* reduce row t *)
          for j = t + 1 to c - 1 do
            if d.(t).(j) <> 0 then begin
              let q = d.(t).(j) / p in
              addmul_col d v j t (-q);
              if d.(t).(j) <> 0 then dirty := true
            end
          done;
          if not !dirty then begin
            (* Row and column are clear.  Enforce divisibility: if some
               entry of the trailing block is not divisible by p, fold
               its row into row t and continue reducing. *)
            let offender = ref None in
            (try
               for i = t + 1 to r - 1 do
                 for j = t + 1 to c - 1 do
                   if d.(i).(j) mod p <> 0 then begin
                     offender := Some i;
                     raise Exit
                   end
                 done
               done
             with Exit -> ());
            match !offender with
            | None -> continue_ := false
            | Some i -> addmul_row d u t i 1
          end
    done
  done;
  (u, d, v)

let diagonal_of_snf d =
  let n = min (rows d) (cols d) in
  Array.init n (fun i -> d.(i).(i))

let kernel a =
  let c = cols a in
  if rows a = 0 then List.init c (fun i -> Array.init c (fun j -> if i = j then 1 else 0))
  else begin
    let _, d, v = snf a in
    let diag = diagonal_of_snf d in
    let basis = ref [] in
    for j = c - 1 downto 0 do
      let dj = if j < Array.length diag then diag.(j) else 0 in
      if dj = 0 then
        (* column j of v spans a kernel direction *)
        basis := Array.init c (fun i -> v.(i).(j)) :: !basis
    done;
    !basis
  end

let kernel_mod ~moduli a =
  let r = rows a and c = cols a in
  if Array.length moduli <> r then invalid_arg "Zmatrix.kernel_mod: moduli length";
  (* Solutions of A x = 0 (mod diag moduli) are projections of the
     integer kernel of [A | diag(moduli)]. *)
  let b =
    Array.init r (fun i ->
        Array.init (c + r) (fun j ->
            if j < c then a.(i).(j) else if j - c = i then moduli.(i) else 0))
  in
  kernel b |> List.map (fun x -> Array.sub x 0 c)

(* --- Hermite normal form of finite-Abelian-group subgroups ------------ *)

(* Subgroups of Z_{d_0} x ... x Z_{d_{r-1}} are represented by the
   integer lattice L <= Z^r generated by their generators together with
   diag(dims) (so L always contains d_i * e_i).  The canonical basis is
   the row-style Hermite normal form: upper triangular, h_ii > 0,
   h_ii | d_i, and every above-diagonal entry h_ji (j < i) reduced into
   [0, h_ii).  Uniqueness of this form makes subgroup equality a plain
   matrix comparison, and the triangular shape gives O(r^2) membership,
   canonical coset representatives and uniform sampling — all without
   ever forming the total group order as an integer.

   Soundness of the entry-size control below: at any point we may
   append a fresh copy of the generator d_j * e_j (it lies in L, and
   adding a lattice element to the generating set never changes the
   lattice), so reducing any working row modulo the dims is a legal
   elementary operation.  All intermediate entries therefore stay below
   (max dims)^2, far from overflow. *)

let check_dims dims =
  Array.iter (fun d -> if d < 1 then invalid_arg "Zmatrix: dimension < 1") dims

(* [v mod d] into [0, d) where [v] is usually already in (-d, d): a
   compare-and-add there, a division only off that range. *)
let wrap v d = if v >= d || v <= -d then Arith.emod v d else if v < 0 then v + d else v

(* [v mod d] into [0, d) for [v < d]: the shape of [a - q * b] with [a]
   in [0, d) and [q * b >= 0].  Above [-d], [d land (v asr 62)] is [d]
   for a negative [v] and 0 otherwise, so no sign test; a division
   only below. *)
let wrap_sub v d = if v > -d then v + (d land (v asr 62)) else Arith.emod v d

(* A checked basis with each row's nonzero columns right of the
   diagonal recorded once, so the per-call steps below walk only those
   entries.  [counts.(i) = dims.(i) / h_ii] is row i's coefficient
   range. *)
type hnf = { hdims : int array; rows : t; nz : int array array; counts : int array }

let counts_of ~dims basis = Array.mapi (fun i d -> d / basis.(i).(i)) dims

let hnf_prepare ~dims basis =
  check_dims dims;
  let r = Array.length dims in
  if rows basis <> r || (r > 0 && cols basis <> r) then
    invalid_arg "Zmatrix: HNF basis shape mismatch";
  Array.iteri
    (fun i row ->
      let h = row.(i) in
      if h < 1 || dims.(i) mod h <> 0 then invalid_arg "Zmatrix: not an HNF subgroup basis";
      for j = 0 to r - 1 do
        (* zero below the diagonal, and each entry above it reduced
           into [0, h_jj) *)
        let x = row.(j) in
        if (j < i && x <> 0) || (j > i && (x < 0 || x >= basis.(j).(j))) then
          invalid_arg "Zmatrix: not an HNF subgroup basis"
      done)
    basis;
  let nz =
    Array.mapi
      (fun i row ->
        let cols = ref [] in
        for j = r - 1 downto i + 1 do
          if row.(j) <> 0 then cols := j :: !cols
        done;
        Array.of_list !cols)
      basis
  in
  { hdims = dims; rows = basis; nz; counts = counts_of ~dims basis }

(* --- The span: a canonical basis grown one generator at a time ------ *)

(* The rows are always the canonical HNF of the generators inserted so
   far, with [nz] as [hnf_prepare] records it.  An insert walks the
   new row left to right.  At column c a residue that is a multiple of
   h_cc is cancelled along row c's nonzero list, so a member costs
   O(r + nnz) and changes nothing.  Any other residue changes the
   pivot: Euclid between row c and the residue leaves the new row c
   (pivot gcd(h_cc, residue), which still divides d_c) and a remainder
   that is zero at c and carries on to the later columns.

   After a pivot change only two kinds of row can hold an entry out of
   range: the changed row itself, right of its diagonal, and a row
   i < c whose entry at c is at or above the new h_cc.  [from.(i)]
   marks such a row with the first column to re-reduce (r when the row
   is clean).  Once the residue is through, the marked rows are
   re-reduced bottom-up, each against rows below it that are already
   canonical again.  Every unmarked row is still the canonical row of
   the larger lattice: a lattice element with the same pivot and every
   entry in range, which is unique.  Entries stay reduced mod the dims
   throughout, as the soundness note above allows.

   [owned.(i)] says row i's array belongs to the span alone.
   [hnf_freeze] hands the row arrays out and clears every flag, and the
   span copies a row before it writes to it again, so a frozen [hnf]
   never sees mutation. *)
type span = {
  sdims : int array;
  srows : t;
  snz : int array array;
  owned : bool array;
  from : int array;  (* r for a clean row *)
  buf : int array;  (* scratch for a rebuilt nonzero list *)
}

let hnf_span ~dims =
  check_dims dims;
  let r = Array.length dims in
  {
    sdims = dims;
    srows = Array.init r (fun i -> Array.init r (fun j -> if i = j then dims.(i) else 0));
    snz = Array.make r [||];
    owned = Array.make r true;
    from = Array.make r r;
    buf = Array.make r 0;
  }

let own sp i =
  if not sp.owned.(i) then begin
    sp.srows.(i) <- Array.copy sp.srows.(i);
    sp.owned.(i) <- true
  end;
  sp.srows.(i)

(* Re-reduce row i from column [lo] on, against the canonical rows
   below it, and rebuild its nonzero list: entries left of [lo] are
   unchanged and in range, so their part of the old list stands. *)
let canonicalise_row sp i lo =
  let dims = sp.sdims and rows = sp.srows and buf = sp.buf in
  let r = Array.length dims in
  let row = own sp i in
  let old = sp.snz.(i) in
  let n = ref 0 in
  while !n < Array.length old && old.(!n) < lo do
    buf.(!n) <- old.(!n);
    incr n
  done;
  for c = lo to r - 1 do
    let x = row.(c) in
    if x <> 0 then begin
      let pc = rows.(c) in
      let h = pc.(c) in
      if x >= h then begin
        let q = x / h in
        row.(c) <- x - (q * h);
        let nz = sp.snz.(c) in
        for k = 0 to Array.length nz - 1 do
          let j = nz.(k) in
          row.(j) <- wrap_sub (row.(j) - (q * pc.(j))) dims.(j)
        done
      end;
      if row.(c) <> 0 then begin
        buf.(!n) <- c;
        incr n
      end
    end
  done;
  sp.snz.(i) <- Array.sub buf 0 !n

let hnf_insert sp x =
  let dims = sp.sdims and rows = sp.srows in
  let r = Array.length dims in
  if Array.length x <> r then invalid_arg "Zmatrix.hnf_insert: generator arity";
  let t = ref (Array.make r 0) in
  for j = 0 to r - 1 do
    !t.(j) <- wrap x.(j) dims.(j)
  done;
  let grew = ref false in
  for c = 0 to r - 1 do
    let v = !t in
    let tc = v.(c) in
    if tc <> 0 then begin
      let row = rows.(c) in
      let h = row.(c) in
      if h = 1 || tc mod h = 0 then begin
        let q = if h = 1 then tc else tc / h in
        v.(c) <- 0;
        let nz = sp.snz.(c) in
        for k = 0 to Array.length nz - 1 do
          let j = nz.(k) in
          v.(j) <- wrap_sub (v.(j) - (q * row.(j))) dims.(j)
        done
      end
      else begin
        (* Euclid on column c; a step with quotient 0 is only the
           swap.  Both rows are the span's own, so it works in place. *)
        let a = ref (own sp c) and b = ref v in
        while !b.(c) <> 0 do
          let a' = !a and b' = !b in
          let q = a'.(c) / b'.(c) in
          if q <> 0 then begin
            a'.(c) <- a'.(c) - (q * b'.(c));
            for j = c + 1 to r - 1 do
              a'.(j) <- wrap_sub (a'.(j) - (q * b'.(j))) dims.(j)
            done
          end;
          a := b';
          b := a'
        done;
        rows.(c) <- !a;
        t := !b;
        grew := true;
        let g = !a.(c) in
        sp.from.(c) <- c + 1;
        for i = 0 to c - 1 do
          if rows.(i).(c) >= g && c < sp.from.(i) then sp.from.(i) <- c
        done
      end
    end
  done;
  if !grew then
    for i = r - 1 downto 0 do
      let lo = sp.from.(i) in
      if lo < r then begin
        sp.from.(i) <- r;
        canonicalise_row sp i lo
      end
    done;
  !grew

let hnf_freeze sp =
  Array.fill sp.owned 0 (Array.length sp.owned) false;
  let rows = Array.copy sp.srows in
  { hdims = sp.sdims; rows; nz = Array.copy sp.snz; counts = counts_of ~dims:sp.sdims rows }

let hnf_of_gens ~dims gens =
  let sp = hnf_span ~dims in
  List.iter (fun g -> ignore (hnf_insert sp g)) gens;
  hnf_freeze sp

let hnf_basis ~dims gens = (hnf_of_gens ~dims gens).rows

let hnf_dims p = p.hdims
let hnf_rows p = p.rows

let hnf_order_log2 p =
  Array.fold_left (fun acc n -> acc +. (log (float_of_int n) /. log 2.0)) 0.0 p.counts

let hnf_order_int p =
  Array.fold_left
    (fun acc n ->
      match acc with Some a when a <= max_int / n -> Some (a * n) | _ -> None)
    (Some 1) p.counts

let hnf_reduce p x =
  let dims = p.hdims in
  let r = Array.length dims in
  if Array.length x <> r then invalid_arg "Zmatrix.hnf_reduce: arity mismatch";
  (* [t] stays reduced modulo the dims throughout, so a row with
     quotient 0 ([t_i < h_ii]) leaves it untouched and a subtraction
     re-reduces only the entries where the basis row is nonzero. *)
  let t = Array.make r 0 in
  for i = 0 to r - 1 do
    t.(i) <- wrap x.(i) dims.(i)
  done;
  for i = 0 to r - 1 do
    let row = p.rows.(i) in
    let h = row.(i) in
    if t.(i) >= h then begin
      let q = t.(i) / h in
      t.(i) <- t.(i) - (q * h);
      let nz = p.nz.(i) in
      for k = 0 to Array.length nz - 1 do
        let j = nz.(k) in
        t.(j) <- wrap_sub (t.(j) - (q * row.(j))) dims.(j)
      done
    end
  done;
  t

(* x is in the subgroup iff it lies in the coset of 0, whose canonical
   representative is 0. *)
let hnf_mem p x = Array.for_all (fun v -> v = 0) (hnf_reduce p x)

(* [v mod d] for [v >= 0], usually below [2d]: a compare-and-subtract
   there, a division only beyond. *)
let wrap_pos v d = if v < d then v else if v < 2 * d then v - d else v mod d

let hnf_sample rng p =
  let dims = p.hdims in
  let r = Array.length dims in
  (* One draw per row, rows with a single choice included.  Rows
     below i never touch x_i, so each coordinate is final once its own
     row is done.  Every coordinate stays reduced as terms arrive: a
     term c * h_ij is below 2^62 for dims below 2^31, but an unreduced
     sum of two such terms would overflow. *)
  let x = Array.make r 0 in
  for i = 0 to r - 1 do
    let row = p.rows.(i) in
    let c = Random.State.full_int rng p.counts.(i) in
    if c <> 0 then begin
      let nz = p.nz.(i) in
      for k = 0 to Array.length nz - 1 do
        let j = nz.(k) in
        x.(j) <- wrap_pos (x.(j) + (c * row.(j))) dims.(j)
      done;
      x.(i) <- wrap_pos (x.(i) + (c * row.(i))) dims.(i)
    end
  done;
  x

let hnf_elements p =
  let dims = p.hdims and basis = p.rows in
  let r = Array.length dims in
  (match hnf_order_int p with
  | Some _ -> ()
  | None -> invalid_arg "Zmatrix.hnf_elements: subgroup order overflows");
  let acc = ref [] in
  let rec go i x =
    if i = r then
      acc := Array.init r (fun j -> Arith.emod x.(j) dims.(j)) :: !acc
    else
      for c = 0 to p.counts.(i) - 1 do
        if c = 0 then go (i + 1) x
        else begin
          let x' = Array.copy x in
          for j = i to r - 1 do
            x'.(j) <- x'.(j) + (c * basis.(i).(j))
          done;
          go (i + 1) x'
        end
      done
  in
  go 0 (Array.make r 0);
  List.rev !acc

let hnf_dual p =
  let dims = p.hdims and basis = p.rows in
  let r = Array.length dims in
  let l = Array.fold_left Arith.lcm 1 dims in
  (* y annihilates the subgroup iff S_k = sum_i b_ki y_i (l / d_i) = 0
     (mod l) for every basis row b_k.  The rows are triangular, so for
     each j a generator y^(j) with y_j = d_j / h_jj and y_i = 0 for
     i > j is found by back-substitution: row k < j fixes y_k modulo
     d_k / h_kk once y_{k+1..j} are chosen (its coefficient on y_k is
     g = h_kk (l / d_k), which divides l).  A solution always exists,
     because the annihilator projects onto the trailing coordinates as
     the annihilator of the trailing rows.  y_j is the least positive
     j-th coordinate of an annihilator element vanishing beyond j, so
     the y^(j) generate the annihilator, and a fresh span
     canonicalises them.  Every S_k is kept reduced mod l, so entries
     stay below [l * max dims]. *)
  let w = Array.map (fun d -> l / d) dims in
  (* above.(k): the rows i < k with a nonzero entry in column k, so a
     coordinate update walks only the S_i it changes, and an S_k that
     is still 0 needs y_k = 0 with no division *)
  let above = Array.make r [] in
  for i = r - 1 downto 0 do
    Array.iter (fun k -> above.(k) <- i :: above.(k)) p.nz.(i)
  done;
  let sp = hnf_span ~dims in
  let y = Array.make r 0 and s = Array.make r 0 in
  for j = 0 to r - 1 do
    Array.fill y 0 (j + 1) 0;
    Array.fill s 0 (j + 1) 0;
    let set k v =
      y.(k) <- v;
      List.iter
        (fun i ->
          let x = s.(i) + (basis.(i).(k) * v mod dims.(k) * w.(k)) in
          s.(i) <- (if x >= l then x - l else x))
        above.(k)
    in
    set j (dims.(j) / basis.(j).(j));
    for k = j - 1 downto 0 do
      if s.(k) <> 0 then begin
        let g = basis.(k).(k) * w.(k) in
        let need = l - s.(k) in
        if need mod g <> 0 then invalid_arg "Zmatrix.hnf_dual: not an HNF subgroup basis";
        set k (need / g)
      end
    done;
    ignore (hnf_insert sp y)
  done;
  hnf_freeze sp
