(* Quickstart: solve Simon's problem — the simplest hidden subgroup
   instance — end to end with the library's public API.

     dune exec examples/quickstart.exe

   Simon's problem: a function f on bit strings Z_2^n satisfies
   f(x) = f(y) iff y = x or y = x + s for a secret mask s.  Finding s
   classically needs ~ sqrt(2^n) queries; the quantum algorithm needs
   O(n).  In HSP language, f hides the order-2 subgroup {0, s}. *)

open Groups
open Hsp

let () =
  let rng = Random.State.make [| 42 |] in
  let n = 8 in
  let mask = [| 1; 0; 1; 1; 0; 0; 1; 0 |] in

  Printf.printf "Simon's problem on Z_2^%d (group order %d)\n" n (1 lsl n);
  Printf.printf "secret mask: %s (known only to the oracle)\n\n"
    (String.concat "" (List.map string_of_int (Array.to_list mask)));

  (* Build the instance: the group, the hidden subgroup <mask>, and
     the canonical hiding function (an opaque oracle from the
     algorithm's point of view). *)
  let instance = Instances.simon ~n ~mask in

  (* Solve via the standard Abelian HSP algorithm (Theorem 3 of the
     paper): Fourier sampling + Smith-normal-form post-processing,
     with Las Vegas verification. *)
  let generators = Abelian_hsp.solve rng instance.Instances.group instance.Instances.hiding in

  Printf.printf "recovered hidden subgroup generators:\n";
  List.iter
    (fun g ->
      Printf.printf "  %s\n" (String.concat "" (List.map string_of_int (Array.to_list g))))
    generators;

  let classical, quantum = Hiding.total_queries instance.Instances.hiding in
  Printf.printf "\noracle queries: %d quantum (superposition), %d classical\n" quantum classical;
  Printf.printf "classical brute force would need %d queries\n" (1 lsl n);

  let ok =
    Group.subgroup_equal instance.Instances.group generators instance.Instances.hidden_gens
  in
  Printf.printf "\nverified against ground truth: %s\n" (if ok then "CORRECT" else "WRONG");
  if not ok then exit 1
