(* The benchmark's own spans.  They wrap the calls the harness makes
   into each layer of the program (a solve, an artifact build, one
   Fourier-sampling draw, one daemon request); nothing inside the
   program is instrumented.  Spans stay in memory and are written once,
   at exit, as Chrome trace-event JSON, which Perfetto and
   chrome://tracing open offline.

   Every span has its own span id, the span id of the span that caused
   it, and the operation id shared by all spans of one solve or
   request. *)

module Jv = Hsp_service.Jsonv

type span = {
  sid : int;
  parent : int;  (* 0 for the root span of the measured window *)
  name : string;
  layer : string;
  op : int;
  tid : int;
  t0 : float;
  t1 : float;
}

type t = {
  origin : float;
  lock : Mutex.t;
  mutable spans : span list;
  mutable next : int;
  mutable extra : float;
      (* seconds of traced-only bookkeeping done outside any span *)
}

let create () =
  { origin = Unix.gettimeofday (); lock = Mutex.create (); spans = []; next = 1; extra = 0. }

let record t ~parent ~name ~layer ~op f =
  let sid = Mutex.protect t.lock (fun () -> let s = t.next in t.next <- s + 1; s) in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let sp =
      { sid; parent; name; layer; op; tid = Thread.id (Thread.self ()); t0;
        t1 = Unix.gettimeofday () }
    in
    Mutex.protect t.lock (fun () -> t.spans <- sp :: t.spans)
  in
  Fun.protect ~finally:finish (fun () -> f sid)

(* [span tr ...] is [f 0] when tracing is off: the untraced run pays
   one match per call. *)
let span tr ~parent ~name ~layer ~op f =
  match tr with None -> f 0 | Some t -> record t ~parent ~name ~layer ~op f

(* Time traced-only work that sits outside every span (for example the
   codec re-timing of daemon replies), so the overhead estimate sees it. *)
let bookkeeping tr f =
  match tr with
  | None -> f ()
  | Some t ->
      let t0 = Unix.gettimeofday () in
      Fun.protect f ~finally:(fun () ->
          let dt = Unix.gettimeofday () -. t0 in
          Mutex.protect t.lock (fun () -> t.extra <- t.extra +. dt))

let spans t = Mutex.protect t.lock (fun () -> List.rev t.spans)

let durations t ~name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (s.t1 -. s.t0) else None)
    (spans t)
  |> Array.of_list

(* Total length of the union of some intervals. *)
let union_length ivs =
  let covered, _ =
    List.fold_left
      (fun (acc, hi) (a, b) ->
        let a = Float.max a hi in
        if b > a then (acc +. (b -. a), b) else (acc, hi))
      (0., Float.neg_infinity) (List.sort compare ivs)
  in
  covered

(* Share of the root span's wall time covered by the union of all other
   spans.  With nested spans on one thread this equals the sum of their
   self times over wall time; with concurrent clients it counts time
   when at least one request was in flight. *)
let coverage t =
  let all = spans t in
  match List.find_opt (fun s -> s.parent = 0) all with
  | None -> 0.
  | Some root ->
      union_length (List.filter_map (fun s -> if s.parent = 0 then None else Some (s.t0, s.t1)) all)
      /. Float.max 1e-9 (root.t1 -. root.t0)

(* Self time per layer: each span's duration minus the part of it its
   children cover (a union, since concurrent children overlap). *)
let self_times t =
  let all = spans t in
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) all;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = s.t1 -. s.t0 -. union_length (Hashtbl.find_all children s.sid) in
      let prev = Option.value ~default:0. (Hashtbl.find_opt acc s.layer) in
      Hashtbl.replace acc s.layer (prev +. own))
    all;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

(* Cost of recording one span on this machine, measured on a
   throwaway recorder so the real trace is untouched. *)
let span_cost () =
  let t = create () in
  let n = 20_000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    record t ~parent:1 ~name:"calibrate" ~layer:"harness" ~op:i (fun _ -> ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n

let overhead_seconds t ~per_span =
  let n, extra = Mutex.protect t.lock (fun () -> (List.length t.spans, t.extra)) in
  (float_of_int n *. per_span) +. extra

let to_chrome t =
  let us x = Jv.Float (Float.round ((x -. t.origin) *. 1e7) /. 10.) in
  let event s =
    Jv.Obj
      [
        ("name", Jv.String s.name);
        ("cat", Jv.String s.layer);
        ("ph", Jv.String "X");
        ("ts", us s.t0);
        ("dur", Jv.Float (Float.round ((s.t1 -. s.t0) *. 1e7) /. 10.));
        ("pid", Jv.Int 1);
        ("tid", Jv.Int s.tid);
        ("args", Jv.Obj [ ("op", Jv.Int s.op); ("span", Jv.Int s.sid); ("parent", Jv.Int s.parent) ]);
      ]
  in
  Jv.Obj
    [ ("traceEvents", Jv.List (List.map event (spans t))); ("displayTimeUnit", Jv.String "ms") ]
