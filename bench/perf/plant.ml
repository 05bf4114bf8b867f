(* A planted instance and the correctness gate.

   The hidden subgroup is H = m_0 Z_{d_0} x ... x m_{r-1} Z_{d_{r-1}}
   inside A = Z_{d_0} x ... x Z_{d_{r-1}}, hidden by the quotient oracle
   f(x) = (x_i mod m_i): the family [hsp_cli solve-abelian] plants and
   the daemon's wire protocol names. *)

type t = { dims : int array; moduli : int array; backend : Quantum.Backend.choice }

let gens p =
  let r = Array.length p.dims in
  List.init r (fun i -> Array.init r (fun j -> if i = j then p.moduli.(i) mod p.dims.(i) else 0))

let in_h p x = Array.for_all2 (fun xi m -> xi mod m = 0) x p.moduli

let oracle p x =
  Quantum.Backend.encode p.moduli (Array.map2 (fun xi m -> xi mod m) x p.moduli)

let label p =
  let runs = ref [] in
  Array.iter
    (fun d ->
      match !runs with
      | (d', k) :: rest when d' = d -> runs := (d, k + 1) :: rest
      | _ -> runs := (d, 1) :: !runs)
    p.dims;
  List.rev_map
    (fun (d, k) -> if k = 1 then Printf.sprintf "Z_%d" d else Printf.sprintf "Z_%d^%d" d k)
    !runs
  |> String.concat "x"

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)
(* ------------------------------------------------------------------ *)

(* A solve is right when its generators lie in H and generate exactly
   H: canonical-HNF equality with the plant, exact at any group size.
   [Zmatrix] ticks no ledger counter, so the gate can run inside a
   traced window. *)
let solve_ok p found =
  let hnf = Numtheory.Zmatrix.hnf_basis ~dims:p.dims in
  List.for_all (fun g -> Array.length g = Array.length p.dims && in_h p g) found
  && Numtheory.Zmatrix.equal (hnf (gens p)) (hnf found)

(* A Fourier-sampling outcome is right when it names a character of A
   that is trivial on every generator of H. *)
let outcome_ok p y =
  Array.length y = Array.length p.dims
  && Array.for_all2 (fun v d -> v >= 0 && v < d) y p.dims
  && List.for_all (Quantum.Qft.character_is_trivial_on ~dims:p.dims y) (gens p)

(* The gate's fault injection: the same instance with its first
   nontrivial modulus replaced by 1, so the wrong H' strictly contains
   H on that coordinate.  Both checks must reject answers computed for
   the real plant.  [None] when every m_i = 1 (H = A), where outcomes
   are all zero and no modulus can be detected from them. *)
let with_wrong_modulus p =
  let r = Array.length p.moduli in
  let rec first i = if i >= r then None else if p.moduli.(i) > 1 then Some i else first (i + 1) in
  Option.map
    (fun i ->
      let moduli = Array.copy p.moduli in
      moduli.(i) <- 1;
      { p with moduli })
    (first 0)

(* ------------------------------------------------------------------ *)
(* Computed kernel work of one Fourier pass (no measurement involved)  *)
(* ------------------------------------------------------------------ *)

(* Fibres the pass transforms on each wire.  Dense transforms every
   length-d fibre, |A|/d per wire.  Sparse transforms populated fibres
   only; for this product-form coset state, wires already transformed
   hold m_j values and wires still to come hold d_j/m_j.  Symbolic
   rewrites the state in closed form and transforms none. *)
let fibres p =
  let r = Array.length p.dims in
  match p.backend with
  | Quantum.Backend.Dense ->
      let total = Array.fold_left ( * ) 1 p.dims in
      Array.map (fun d -> total / d) p.dims
  | Quantum.Backend.Sparse ->
      Array.init r (fun w ->
          let n = ref 1 in
          for j = 0 to r - 1 do
            if j < w then n := !n * p.moduli.(j)
            else if j > w then n := !n * (p.dims.(j) / p.moduli.(j))
          done;
          !n)
  | _ -> Array.make r 0

(* Floating-point operations for one length-d fibre under the kernel
   the backend runs: a d x d matrix for d <= 4 on dense, radix-2 FFT
   for powers of two, Bluestein (three FFTs of the next power of two at
   or above 2d - 1, plus chirps) otherwise. *)
let fibre_flops backend d =
  let fft n = 5. *. float_of_int n *. float_of_int (Numtheory.Arith.ilog2 n) in
  if d <= 1 then 0.
  else if backend = Quantum.Backend.Dense && d <= 4 then 8. *. float_of_int (d * d)
  else if d land (d - 1) = 0 then fft d
  else begin
    let m = ref 1 in
    while !m < (2 * d) - 1 do
      m := 2 * !m
    done;
    (3. *. fft !m) +. (6. *. float_of_int !m) +. (12. *. float_of_int d)
  end

(* (bytes, flops) of one Fourier pass: each fibre reads and writes d
   complex values held as two float planes. *)
let pass_work p =
  let f = fibres p in
  let bytes = ref 0. and flops = ref 0. in
  Array.iteri
    (fun w n ->
      let d = p.dims.(w) in
      bytes := !bytes +. (float_of_int n *. 32. *. float_of_int d);
      flops := !flops +. (float_of_int n *. fibre_flops p.backend d))
    f;
  (!bytes, !flops)
