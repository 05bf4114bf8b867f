(* The "Abelian obstacle" oracles (Theorem 4 hypotheses): order
   finding, factoring, discrete logarithms and constructive Abelian
   membership, all by simulated Shor-style Fourier sampling.

     dune exec examples/shor_oracles.exe

   The Beals–Babai toolbox assumes oracles for exactly these tasks;
   Shor's algorithms discharge them on a quantum computer.  This
   example exercises each one through the simulator and checks every
   answer against ground truth it computes classically: it exits 1 if
   any answer is wrong. *)

open Groups
open Hsp

let failures = ref 0

(* The verdict printed beside an answer; a false one is counted. *)
let verdict ok =
  if ok then "ok"
  else begin
    incr failures;
    "WRONG"
  end

let () =
  let rng = Random.State.make [| 271828 |] in

  (* --- order finding in a black-box group ------------------------ *)
  Printf.printf "# Order finding (black-box, unique encoding)\n";
  let g = Dihedral.group 21 in
  let queries = Quantum.Query.create () in
  List.iter
    (fun (name, x) ->
      let o = Order_finding.order rng g x ~bound:42 ~queries in
      (* o is the order: x^o = 1, and x^(o/p) <> 1 for each prime p | o *)
      let is_id k = g.Group.equal (Group.pow g x k) g.Group.id in
      let ok =
        o >= 1 && is_id o
        && List.for_all (fun p -> not (is_id (o / p))) (Numtheory.Primes.prime_divisors o)
      in
      Printf.printf "  ord(%s) = %d  %s\n" name o (verdict ok))
    [
      ("s", Dihedral.rotation 21 1);
      ("s^6", Dihedral.rotation 21 6);
      ("s^7", Dihedral.rotation 21 7);
      ("t", Dihedral.reflection 21 0);
    ];
  Printf.printf "  quantum queries: %d\n\n" (Quantum.Query.count queries);

  (* --- factoring -------------------------------------------------- *)
  Printf.printf "# Factoring via quantum order finding\n";
  List.iter
    (fun n ->
      match Quantum.Shor.factor rng n with
      | Some (a, b) ->
          let ok = a * b = n && 1 < a && a < n && 1 < b && b < n in
          Printf.printf "  %d = %d * %d  %s\n" n a b (verdict ok)
      | None -> Printf.printf "  %d: attempts exhausted  %s\n" n (verdict false))
    [ 15; 21; 91; 221 ];
  print_newline ();

  (* --- discrete logarithm ---------------------------------------- *)
  Printf.printf "# Discrete logarithm in Z_p^* (as an Abelian HSP)\n";
  List.iter
    (fun (p, base, l) ->
      let h = Numtheory.Arith.powmod base l p in
      match Dlog.discrete_log rng ~p ~g:base ~h with
      | Some found ->
          let ok = Numtheory.Arith.powmod base found p = h in
          Printf.printf "  log_%d(%d) mod %d = %d (planted %d)  %s\n" base h p found l
            (verdict ok)
      | None -> Printf.printf "  log_%d(%d) mod %d: dlog failed  %s\n" base h p (verdict false))
    [ (101, 2, 37); (23, 5, 9); (31, 3, 11) ];
  print_newline ();

  (* --- constructive membership (Theorem 6) ----------------------- *)
  Printf.printf "# Constructive membership in Abelian subgroups (Theorem 6)\n";
  let z = Cyclic.product [| 12; 18 |] in
  let hs = [ [| 2; 3 |]; [| 0; 6 |] ] in
  let queries = Quantum.Query.create () in
  let span = Group.closure z hs in
  List.iter
    (fun target ->
      match Membership.express rng z ~hs target ~order_bound:36 ~queries with
      | Some w ->
          let e = w.Membership.exponents in
          let word =
            List.fold_left2
              (fun acc h k -> z.Group.mul acc (Group.pow z h k))
              z.Group.id hs (Array.to_list e)
          in
          Printf.printf "  (%d,%d) = h1^%d * h2^%d  %s\n" target.(0) target.(1) e.(0) e.(1)
            (verdict (z.Group.equal word target))
      | None ->
          (* "NOT in" is right only for a target outside <h1, h2> *)
          let ok = not (List.exists (z.Group.equal target) span) in
          Printf.printf "  (%d,%d) is NOT in <h1, h2>  %s\n" target.(0) target.(1) (verdict ok))
    [ [| 4; 0 |]; [| 2; 9 |]; [| 1; 0 |] ];
  Printf.printf "  (Babai–Szemerédi: no classical black-box algorithm is polynomial)\n";
  if !failures > 0 then begin
    Printf.printf "\n%d WRONG answer(s)\n" !failures;
    exit 1
  end
