(* The prep's coset draw, checked exactly: a tag function with unequal
   fibres (sizes 3, 6, 15 over Z_4 x Z_6, interleaved in index order)
   is no hiding function, so the Fourier outcome law is the mixture
   P(y) = sum_c (|c| / |A|) |<chi_y | c>|^2 = sum_c |sum_{x in c} chi_y(x)|^2 / |A|^2,
   which pins the |c| / |A| weight of every coset.  On 40,000 draws a
   uniform choice of coset scores ~5000 on the chi-squared statistic,
   and a bucket start assigned to the previous coset ~150; the gate is
   50 (19 degrees of freedom).  Both scores scale with the draw count,
   so the 30,000 draws test_matrix makes in each of its nine cells
   (~110 for the bucket fault) still clear the gate.  Shared by
   test_quantum (per explicit backend) and test_matrix (per
   session-default backend). *)

open Linalg
open Quantum

let dims = [| 4; 6 |]
let total = 24
let tag idx = match idx mod 8 with 0 -> 0 | 1 | 2 -> 1 | _ -> 2
let f x = tag (State.encode dims x)

let exact =
  lazy
    (Array.init total (fun y ->
         let yv = State.decode dims y in
         let sums = Array.make 3 Cx.zero in
         for x = 0 to total - 1 do
           sums.(tag x) <- Cx.add sums.(tag x) (Qft.character ~dims yv (State.decode dims x))
         done;
         Array.fold_left (fun acc z -> acc +. Cx.norm2 z) 0.0 sums /. float_of_int (total * total)))

(* Draw [draws] outcomes with a fixed seed and gate them against the
   exact law: the outcome counts, or why they fail. *)
let check ?(draws = 40_000) draw =
  let rng = Random.State.make [| 0xc05e7 |] in
  let counts = Array.make total 0 in
  for _ = 1 to draws do
    let y = State.encode dims (draw rng) in
    counts.(y) <- counts.(y) + 1
  done;
  let stat = ref 0.0 and impossible = ref None in
  Array.iteri
    (fun y p ->
      if p < 1e-12 then begin
        if counts.(y) > 0 then impossible := Some y
      end
      else
        let e = float_of_int draws *. p in
        let d = float_of_int counts.(y) -. e in
        stat := !stat +. (d *. d /. e))
    (Lazy.force exact);
  match !impossible with
  | Some y -> Error (Printf.sprintf "outcome %d has probability 0" y)
  | None when !stat > 50.0 -> Error (Printf.sprintf "chi2 %.1f exceeds 50" !stat)
  | None -> Ok counts
