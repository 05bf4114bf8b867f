open Linalg

type op = Gate of Cmat.t * int list

(* Ops are kept latest-first so [gate]/[seq] are O(1)/O(|b|) instead of
   the former O(n) list append per gate (O(n^2) to build a circuit);
   [ops] reverses on demand. *)
type t = { num_qubits : int; rev_ops : op list; count : int }

let empty n = { num_qubits = n; rev_ops = []; count = 0 }
let num_qubits t = t.num_qubits
let ops t = List.rev t.rev_ops
let gate_count t = t.count

let of_ops num_qubits ops =
  { num_qubits; rev_ops = List.rev ops; count = List.length ops }

let gate t m wires =
  let arity = List.length wires in
  if arity = 0 then invalid_arg "Circuit.gate: empty wire list";
  List.iter
    (fun w ->
      if w < 0 || w >= t.num_qubits then invalid_arg "Circuit.gate: wire out of range")
    wires;
  if List.length (List.sort_uniq Int.compare wires) <> arity then
    invalid_arg "Circuit.gate: duplicate wires";
  let dim = 1 lsl arity in
  if Cmat.rows m <> dim || Cmat.cols m <> dim then
    invalid_arg "Circuit.gate: matrix dimension does not match wire count";
  { t with rev_ops = Gate (m, wires) :: t.rev_ops; count = t.count + 1 }

let seq a b =
  if not (Int.equal a.num_qubits b.num_qubits) then invalid_arg "Circuit.seq: arity mismatch";
  { a with rev_ops = b.rev_ops @ a.rev_ops; count = a.count + b.count }

let run t state =
  if State.num_wires state <> t.num_qubits || Array.exists (fun d -> d <> 2) (State.dims state)
  then invalid_arg "Circuit.run: state is not a matching qubit register";
  List.fold_left (fun st (Gate (m, wires)) -> State.apply_wires st ~wires m) state (ops t)

let to_matrix t =
  let dim = 1 lsl t.num_qubits in
  let cols =
    Array.init dim (fun k ->
        let x = State.decode (Array.make t.num_qubits 2) k in
        let st = run t (State.of_basis (Array.make t.num_qubits 2) x) in
        State.amplitudes st)
  in
  Cmat.init dim dim (fun i j -> cols.(j).(i))

let qft ?approx_threshold n =
  let keep k = match approx_threshold with None -> true | Some t -> k <= t in
  let c = ref (empty n) in
  (* Big-endian convention: wire 0 is the most significant bit.  The
     standard decomposition produces the DFT with the output bits
     reversed; the trailing swaps undo that. *)
  for i = 0 to n - 1 do
    c := gate !c Gates.h [ i ];
    for j = i + 1 to n - 1 do
      let k = j - i + 1 in
      if keep k then c := gate !c (Gates.controlled (Gates.rk k)) [ j; i ]
    done
  done;
  for i = 0 to (n / 2) - 1 do
    c := gate !c Gates.swap [ i; n - 1 - i ]
  done;
  !c

let inverse t =
  { t with rev_ops = List.rev_map (fun (Gate (m, wires)) -> Gate (Cmat.adjoint m, wires)) t.rev_ops }
