open Linalg
open Quantum

type violation = { gate : int option; what : string }

type report = {
  num_qubits : int;
  gates : int;
  depth : int;
  rotations : int;
  max_arity : int;
}

let is_diagonal m =
  let n = Cmat.rows m in
  Cmat.cols m = n
  && begin
       let ok = ref true in
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           if i <> j && not (Cx.approx_equal ~eps:1e-12 m.(i).(j) Cx.zero) then ok := false
         done
       done;
       !ok
     end

let check ?(eps = 1e-9) (c : Circuit.t) =
  let num_qubits = Circuit.num_qubits c in
  let violations = ref [] in
  let bad gate what = violations := { gate; what } :: !violations in
  if num_qubits < 0 then bad None (Printf.sprintf "negative register size %d" num_qubits);
  (* ASAP scheduling: a gate starts one layer after the latest gate it
     shares a wire with; disjoint gates commute into the same layer. *)
  let wire_depth = Array.make (max num_qubits 1) 0 in
  let depth = ref 0 in
  let rotations = ref 0 in
  let max_arity = ref 0 in
  List.iteri
    (fun idx (Circuit.Gate (m, wires)) ->
      let g = Some idx in
      let arity = List.length wires in
      if arity = 0 then bad g "empty wire list";
      max_arity := max !max_arity arity;
      let in_range = ref true in
      List.iter
        (fun w ->
          if w < 0 || w >= num_qubits then begin
            in_range := false;
            bad g (Printf.sprintf "wire %d out of range [0, %d)" w num_qubits)
          end)
        wires;
      let sorted = List.sort_uniq Int.compare wires in
      if List.length sorted <> arity then
        bad g
          (Printf.sprintf "duplicate wires [%s]"
             (String.concat "; " (List.map string_of_int wires)));
      let dim = 1 lsl arity in
      if Cmat.rows m <> dim || Cmat.cols m <> dim then
        bad g
          (Printf.sprintf "matrix is %dx%d but %d wire(s) require %dx%d" (Cmat.rows m)
             (Cmat.cols m) arity dim dim)
      else if not (Cmat.is_unitary ~eps m) then
        bad g (Printf.sprintf "matrix is not unitary to tolerance %g" eps)
      else if is_diagonal m then incr rotations;
      if !in_range && arity > 0 then begin
        let start = List.fold_left (fun acc w -> max acc wire_depth.(w)) 0 wires in
        List.iter (fun w -> wire_depth.(w) <- start + 1) wires;
        depth := max !depth (start + 1)
      end)
    (Circuit.ops c);
  match List.rev !violations with
  | [] ->
      Ok
        {
          num_qubits;
          gates = Circuit.gate_count c;
          depth = !depth;
          rotations = !rotations;
          max_arity = !max_arity;
        }
  | vs -> Error vs

let qft_rotation_count ?threshold n =
  (* rotations rk k act on pairs (i, j) with j - i = k - 1; a threshold
     t keeps gaps 1 .. t-1, each gap g contributing n - g pairs *)
  let max_gap = match threshold with None -> n - 1 | Some t -> min (t - 1) (n - 1) in
  let count = ref 0 in
  for g = 1 to max_gap do
    count := !count + (n - g)
  done;
  !count

let qft_exact_gate_count n = (n * (n + 1) / 2) + (n / 2)

let qft_approx_gate_count ~threshold n =
  n + qft_rotation_count ~threshold n + (n / 2)

let check_qft ?approx_threshold n =
  let c = Circuit.qft ?approx_threshold n in
  let budget =
    match approx_threshold with
    | None -> qft_exact_gate_count n
    | Some t -> qft_approx_gate_count ~threshold:t n
  in
  match check c with
  | Error _ as e -> e
  | Ok r ->
      let violations = ref [] in
      if r.gates <> budget then
        violations :=
          {
            gate = None;
            what =
              Printf.sprintf "qft %d: gate count %d differs from closed form %d" n r.gates
                budget;
          }
          :: !violations;
      let rot = qft_rotation_count ?threshold:approx_threshold n in
      if r.rotations <> rot then
        violations :=
          {
            gate = None;
            what =
              Printf.sprintf "qft %d: rotation count %d differs from closed form %d" n
                r.rotations rot;
          }
          :: !violations;
      if !violations = [] then Ok r else Error (List.rev !violations)

let pp_violation fmt v =
  match v.gate with
  | Some i -> Format.fprintf fmt "gate %d: %s" i v.what
  | None -> Format.fprintf fmt "circuit: %s" v.what

let pp_report fmt r =
  Format.fprintf fmt "qubits=%d gates=%d depth=%d rotations=%d max-arity=%d" r.num_qubits
    r.gates r.depth r.rotations r.max_arity
