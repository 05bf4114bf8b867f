open Numtheory

let max_q = 1 lsl 20

(* Register size: the smallest power of two >= 2 * bound^2, capped so
   the dense simulation stays tractable.  Below the ideal size the
   continued-fraction recovery still succeeds with constant
   probability; the verification loop absorbs the difference. *)
let register_size bound =
  let target = 2 * bound * bound in
  let q = ref 2 in
  while !q < target && !q < max_q do
    q := !q * 2
  done;
  !q

let verified_period f r =
  r >= 1
  && Int.equal (f r) (f 0)
  && List.for_all (fun p -> not (Int.equal (f (r / p)) (f 0))) (Primes.prime_divisors r)

let period_finding rng ~f ~period_bound ~queries ~max_rounds =
  if period_bound < 1 then invalid_arg "Shor.period_finding: bound < 1";
  let q = register_size period_bound in
  (* One coset sampler over Z_Q per call: f is tabulated into its coset
     buckets once, and each round builds one coset state off them. *)
  let draw = Coset_state.sampler ~dims:[| q |] ~f:(fun k -> f k.(0)) ~queries () in
  let rec go rounds acc =
    if rounds >= max_rounds then None
    else begin
      let c = (draw rng).(0) in
      (* Accept a convergent h/k only if it approximates c/q to within
         1/(2q): for q >= 2*bound^2 such a fraction with denominator
         <= bound is unique, so an accepted k is the reduced
         denominator of the true j/r and divides r — near-miss
         measurements are rejected instead of poisoning the lcm. *)
      let accepted =
        List.filter
          (fun (h, k) ->
            k >= 1 && k <= period_bound && abs ((2 * k * c) - (2 * h * q)) <= k)
          (Contfrac.convergents c q)
      in
      let acc =
        List.fold_left (fun acc (_, k) -> Arith.lcm acc k) acc accepted
      in
      let acc = if acc > period_bound then 1 else acc in
      if verified_period f acc then Some acc else go (rounds + 1) acc
    end
  in
  if verified_period f 1 then Some 1 else go 0 1

let find_order rng ~pow ~order_bound ~queries =
  period_finding rng ~f:pow ~period_bound:order_bound ~queries ~max_rounds:40

let factor rng n =
  if n < 4 then invalid_arg "Shor.factor: n < 4";
  if Primes.is_prime n then invalid_arg "Shor.factor: prime input";
  if n land 1 = 0 then Some (2, n / 2)
  else begin
    let queries = Query.create () in
    let rec attempt budget =
      if budget = 0 then None
      else begin
        let a = 2 + Random.State.int rng (n - 3) in
        let g = Arith.gcd a n in
        if g > 1 then Some (min g (n / g), max g (n / g))
        else
          let pow k = Arith.powmod a k n in
          match find_order rng ~pow ~order_bound:n ~queries with
          | None -> attempt (budget - 1)
          | Some r ->
              if r land 1 = 1 then attempt (budget - 1)
              else begin
                let h = Arith.powmod a (r / 2) n in
                if h = n - 1 then attempt (budget - 1)
                else begin
                  let g1 = Arith.gcd (h - 1) n and g2 = Arith.gcd (h + 1) n in
                  let pick g = if g > 1 && g < n then Some (min g (n / g), max g (n / g)) else None in
                  match pick g1 with
                  | Some f -> Some f
                  | None -> ( match pick g2 with Some f -> Some f | None -> attempt (budget - 1))
                end
              end
      end
    in
    attempt 16
  end
