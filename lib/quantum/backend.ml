type choice = Dense | Sparse | Symbolic

let choice_of_string s =
  match String.lowercase_ascii s with
  | "dense" -> Ok (Some Dense)
  | "sparse" -> Ok (Some Sparse)
  | "symbolic" -> Ok (Some Symbolic)
  | "auto" -> Ok None
  | _ -> Error (Printf.sprintf "unknown backend %S (expected dense, sparse, symbolic or auto)" s)

let choice_to_string = function
  | Dense -> "dense"
  | Sparse -> "sparse"
  | Symbolic -> "symbolic"

(* One home for every size-cap constant in the simulator.  Each cap
   bounds a different resource, so they are deliberately distinct
   numbers; keeping them side by side (with the consumers named) stops
   the docs and the code drifting apart again. *)
module Caps = struct
  let dense_state = 1 lsl 24
  let coset_dense = 1 lsl 22
  let coset_sparse = 1 lsl 26
  let symbolic_materialise = 1 lsl 20
end

let current = Atomic.make None
let default () = Atomic.get current
let set_default c = Atomic.set current c

let total_of dims =
  Array.fold_left
    (fun acc d ->
      if d < 1 then invalid_arg "State: wire dimension < 1";
      if acc > max_int / d then invalid_arg "State: register dimension overflows";
      acc * d)
    1 dims

let total_of_opt dims =
  Array.fold_left
    (fun acc d ->
      if d < 1 then invalid_arg "State: wire dimension < 1";
      match acc with Some a when a <= max_int / d -> Some (a * d) | _ -> None)
    (Some 1) dims

let encode dims x =
  if Array.length x <> Array.length dims then invalid_arg "State.encode: arity mismatch";
  let idx = ref 0 in
  for i = 0 to Array.length x - 1 do
    let xi = x.(i) in
    if xi < 0 || xi >= dims.(i) then invalid_arg "State.encode: value out of range";
    idx := (!idx * dims.(i)) + xi
  done;
  !idx

let decode dims idx =
  let n = Array.length dims in
  let x = Array.make n 0 in
  let rem = ref idx in
  for i = n - 1 downto 0 do
    x.(i) <- !rem mod dims.(i);
    rem := !rem / dims.(i)
  done;
  x

let dims_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i d -> if not (Int.equal d b.(i)) then ok := false) a;
  !ok

let strides dims =
  let n = Array.length dims in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * dims.(i + 1)
  done;
  s

let sample_discrete rng probs =
  if Array.length probs = 0 then invalid_arg "Backend.sample_discrete: empty distribution";
  let r = Random.State.float rng 1.0 in
  (* Floating-point rounding can leave sum(probs) < r; the fallback must
     be the last index carrying mass, never a zero-probability outcome. *)
  let acc = ref 0.0 and chosen = ref (-1) and last_nonzero = ref (-1) in
  (try
     Array.iteri
       (fun i p ->
         if p > 0.0 then last_nonzero := i;
         acc := !acc +. p;
         if r < !acc then begin
           chosen := i;
           raise Exit
         end)
       probs
   with Exit -> ());
  if !chosen >= 0 then !chosen
  else if !last_nonzero >= 0 then !last_nonzero
  else invalid_arg "Backend.sample_discrete: zero distribution"
