(* Wire protocol of hsp_served.

   Frames: 4-byte big-endian payload length, then that many bytes of
   UTF-8 JSON — one request object per frame from the client, one
   response object per frame back.  Length-prefixing keeps the reader
   trivial (no streaming JSON) and makes oversized requests rejectable
   before any parsing.

   Requests name a *planted instance* rather than shipping an oracle
   closure: [dims] describes A = Z_{d_1} x ... x Z_{d_r} and [moduli]
   the hidden subgroup H = m_1 Z_{d_1} x ... x m_r Z_{d_r} with its
   quotient oracle f(x) = (x_i mod m_i) — the same family hsp_cli's
   solve-abelian plants, covering dense, sparse and cryptographic-scale
   symbolic instances with one shape.  Dimension entries may be JSON
   ints or "b^k" strings (k copies of b), so a Z_2^200 register is
   ["2^200"], not two hundred literals. *)

type instance = {
  dims : int array;
  moduli : int array;
  backend : Quantum.Backend.choice option;
}

type request =
  | Sample of { inst : instance; count : int; seed : int option }
  | Solve of { inst : instance; seed : int option }
  | Check_circuit of { inst : instance }
  | Stats
  | Shutdown

type envelope = { id : Jsonv.t; req : request }

type error_kind = Malformed | Rejected | Retryable | Crashed

let kind_to_string = function
  | Malformed -> "malformed"
  | Rejected -> "rejected"
  | Retryable -> "retryable"
  | Crashed -> "crashed"

let retryable = function Retryable -> true | Malformed | Rejected | Crashed -> false

(* ------------------------------------------------------------------ *)
(* Request decoding                                                    *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* "b^k" expands to k copies of b (as hsp_cli --dims does), so
   cryptographic register shapes stay readable on the wire. *)
let expand_entry v =
  match (v : Jsonv.t) with
  | Jsonv.Int n -> Ok [ n ]
  | Jsonv.String s -> (
      match Hsp.Instances.expand_repeat s with
      | Ok xs -> Ok xs
      | Error `Repeat_out_of_range -> Error "repeat count out of range"
      | Error `Malformed -> Error (Printf.sprintf "bad dimension entry %S" s))
  | _ -> Error "dimension entries must be ints or \"b^k\" strings"

let int_array_field obj name =
  match Jsonv.member name obj with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match Jsonv.to_list_opt v with
      | None -> Error (Printf.sprintf "field %S must be an array" name)
      | Some items ->
          let rec go acc = function
            | [] -> Ok (Array.of_list (List.concat (List.rev acc)))
            | e :: rest ->
                let* xs = expand_entry e in
                go (xs :: acc) rest
          in
          go [] items)

let instance_of_json obj =
  let* dims = int_array_field obj "dims" in
  let* moduli =
    match Jsonv.member "moduli" obj with
    | None ->
        (* trivial hidden subgroup H = A: every m_i = d_i *)
        Ok (Array.copy dims)
    | Some _ -> int_array_field obj "moduli"
  in
  let* backend =
    match Jsonv.member "backend" obj with
    | None | Some Jsonv.Null -> Ok None
    | Some v -> (
        match Jsonv.to_string_opt v with
        | None -> Error "field \"backend\" must be a string"
        | Some s -> Quantum.Backend.choice_of_string s)
  in
  Ok { dims; moduli; backend }

let int_opt_field obj name =
  match Jsonv.member name obj with
  | None | Some Jsonv.Null -> Ok None
  | Some v -> (
      match Jsonv.to_int_opt v with
      | Some n -> Ok (Some n)
      | None -> Error (Printf.sprintf "field %S must be an int" name))

let request_of_json (v : Jsonv.t) =
  match v with
  | Jsonv.Obj _ -> (
      let id = Option.value ~default:Jsonv.Null (Jsonv.member "id" v) in
      let* req =
        match Option.bind (Jsonv.member "op" v) Jsonv.to_string_opt with
        | None -> Error "missing or non-string field \"op\""
        | Some "sample" ->
            let* inst = instance_of_json v in
            let* count =
              match int_opt_field v "count" with
              | Ok None -> Ok 1
              | Ok (Some n) when n >= 1 && n <= 1_000_000 -> Ok n
              | Ok (Some _) -> Error "field \"count\" must be in 1..1000000"
              | Error _ as e -> e
            in
            let* seed = int_opt_field v "seed" in
            Ok (Sample { inst; count; seed })
        | Some "solve" ->
            let* inst = instance_of_json v in
            let* seed = int_opt_field v "seed" in
            Ok (Solve { inst; seed })
        | Some "check-circuit" ->
            let* inst = instance_of_json v in
            Ok (Check_circuit { inst })
        | Some "stats" -> Ok Stats
        | Some "shutdown" -> Ok Shutdown
        | Some op -> Error (Printf.sprintf "unknown op %S" op)
      in
      Ok { id; req }
    )
  | _ -> Error "request must be a JSON object"

let parse_request payload =
  match Jsonv.of_string payload with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok v -> request_of_json v

(* ------------------------------------------------------------------ *)
(* Response encoding                                                   *)
(* ------------------------------------------------------------------ *)

let ok_response ~id fields = Jsonv.Obj (("id", id) :: ("ok", Jsonv.Bool true) :: fields)

let error_response ~id kind message =
  Jsonv.Obj
    [
      ("id", id);
      ("ok", Jsonv.Bool false);
      ( "error",
        Jsonv.Obj
          [
            ("kind", Jsonv.String (kind_to_string kind));
            ("retryable", Jsonv.Bool (retryable kind));
            ("message", Jsonv.String message);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let max_frame = 16 * 1024 * 1024

exception Frame_too_large of int

let rec really_read fd buf off len =
  if len > 0 then begin
    let n = Unix.read fd buf off len in
    if n = 0 then raise End_of_file;
    really_read fd buf (off + n) (len - n)
  end

let read_frame fd =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 0 4 with
  | exception End_of_file -> None
  | () ->
      let len =
        (Char.code (Bytes.get hdr 0) lsl 24)
        lor (Char.code (Bytes.get hdr 1) lsl 16)
        lor (Char.code (Bytes.get hdr 2) lsl 8)
        lor Char.code (Bytes.get hdr 3)
      in
      if len > max_frame then raise (Frame_too_large len);
      let payload = Bytes.create len in
      really_read fd payload 0 len;
      Some (Bytes.unsafe_to_string payload)

let rec really_write fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    really_write fd buf (off + n) (len - n)
  end

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then raise (Frame_too_large len);
  let buf = Bytes.create (4 + len) in
  Bytes.set buf 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set buf 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set buf 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set buf 3 (Char.chr (len land 0xFF));
  Bytes.blit_string payload 0 buf 4 len;
  really_write fd buf 0 (4 + len)
