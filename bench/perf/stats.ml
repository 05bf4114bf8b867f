(* Order statistics shared by the run report and [hsp_bench diff]. *)

(* Nearest-rank percentile ([p] in (0, 1]) of an unsorted sample: the
   smallest value with at least a [p] share of the sample at or below
   it.  [nan] on an empty sample. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
  end

(* Linear-interpolated median of an unsorted sample. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
  end

(* First and third quartiles exactly as Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive"
   method) computes them, so a spread reported here matches the one the
   acceptance check computes.  A single value is its own quartiles. *)
let quartiles xs =
  let n = Array.length xs in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (xs.(0), xs.(0))
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)
  end

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)
