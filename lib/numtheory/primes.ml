let sieve n =
  if n < 2 then [||]
  else begin
    let composite = Bytes.make (n + 1) '\000' in
    let i = ref 2 in
    while !i * !i <= n do
      if Bytes.get composite !i = '\000' then begin
        let j = ref (!i * !i) in
        while !j <= n do
          Bytes.set composite !j '\001';
          j := !j + !i
        done
      end;
      incr i
    done;
    let count = ref 0 in
    for k = 2 to n do
      if Bytes.get composite k = '\000' then incr count
    done;
    let out = Array.make !count 0 in
    let idx = ref 0 in
    for k = 2 to n do
      if Bytes.get composite k = '\000' then begin
        out.(!idx) <- k;
        incr idx
      end
    done;
    out
  end

(* Overflow-safe modular multiplication: direct product when it fits in
   62 bits, otherwise Russian-peasant addition. *)
let mulmod a b m =
  let a = Arith.emod a m and b = Arith.emod b m in
  if m <= 1 lsl 31 then a * b mod m
  else begin
    let acc = ref 0 and a = ref a and b = ref b in
    while !b > 0 do
      if !b land 1 = 1 then acc := Arith.emod (!acc + !a) m;
      a := Arith.emod (!a + !a) m;
      b := !b asr 1
    done;
    !acc
  end

let powmod_safe b e m =
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mulmod acc b m) (mulmod b b m) (e asr 1)
    else go acc (mulmod b b m) (e asr 1)
  in
  go (1 mod m) (Arith.emod b m) e

(* Deterministic witness set valid for all integers below 3.3 * 10^24,
   hence for every OCaml int. *)
let mr_witnesses = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

let is_prime n =
  if n < 2 then false
  else if n < 4 then true
  else if n land 1 = 0 then false
  else begin
    let d = ref (n - 1) and s = ref 0 in
    while !d land 1 = 0 do
      d := !d asr 1;
      incr s
    done;
    let witness a =
      let a = a mod n in
      if a = 0 then false
      else begin
        let x = ref (powmod_safe a !d n) in
        if !x = 1 || !x = n - 1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to !s - 1 do
               x := mulmod !x !x n;
               if !x = n - 1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      end
    in
    not (List.exists witness mr_witnesses)
  end

let pollard_rho rng n =
  (* Brent-style cycle finding; assumes n composite, odd, not a prime
     power obstacle for our sizes.  Returns a nontrivial factor. *)
  let rec attempt () =
    let c = 1 + Random.State.int rng (n - 1) in
    let f x = Arith.emod (mulmod x x n + c) n in
    let x = ref (Random.State.int rng n) in
    let y = ref !x and d = ref 1 in
    while !d = 1 do
      x := f !x;
      y := f (f !y);
      d := Arith.gcd (abs (!x - !y)) n
    done;
    if !d = n then attempt () else !d
  in
  attempt ()

let factorize n =
  if n < 1 then invalid_arg "Primes.factorize: n < 1";
  let rng = Random.State.make [| 0x5eed; n |] in
  let counts = Hashtbl.create 8 in
  let add p = Hashtbl.replace counts p (1 + try Hashtbl.find counts p with Not_found -> 0) in
  let rec split n =
    if n = 1 then ()
    else if is_prime n then add n
    else begin
      (* Trial division first: cheap and removes all small factors. *)
      let rest = ref n and p = ref 2 and found = ref false in
      while (not !found) && !p * !p <= !rest && !p < 10_000 do
        if !rest mod !p = 0 then begin
          add !p;
          rest := !rest / !p;
          found := true
        end
        else incr p
      done;
      if !found then split !rest
      else begin
        let d = pollard_rho rng !rest in
        split d;
        split (!rest / d)
      end
    end
  in
  split n;
  Hashtbl.fold (fun p e acc -> (p, e) :: acc) counts []
  |> List.sort (fun (p, _) (q, _) -> compare p q)

let prime_divisors n = List.map fst (factorize n)

let euler_phi n =
  List.fold_left (fun acc (p, _) -> acc / p * (p - 1)) n (factorize n)
