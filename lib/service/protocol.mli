(** Wire protocol of [hsp_served].

    {b Framing} — every message (both directions) is one frame: a
    4-byte big-endian payload length followed by that many bytes of
    UTF-8 JSON.  Frames above {!max_frame} are rejected before
    parsing.

    {b Requests} — a JSON object with an ["op"] field and an optional
    ["id"] echoed verbatim in the reply:

    {v
    {"op":"sample", "id":1, "dims":["2^200"], "moduli":["2^100","1^100"],
     "backend":"symbolic", "count":16, "seed":42}
    {"op":"solve", "dims":[8,8], "moduli":[4,2]}
    {"op":"check-circuit", "dims":["2^30"]}
    {"op":"stats"}   {"op":"shutdown"}
    v}

    A request names a {e planted instance} rather than shipping an
    oracle: [dims] is the group [A = Z_{d_1} x ... x Z_{d_r}], [moduli]
    the hidden subgroup [H = prod m_i Z_{d_i}] with quotient oracle
    [f(x) = (x_i mod m_i)] — the family [hsp_cli solve-abelian] plants.
    Dimension entries are ints or ["b^k"] strings (k copies of b).
    Missing [moduli] means the trivial subgroup [H = A]. *)

type instance = {
  dims : int array;
  moduli : int array;
  backend : Quantum.Backend.choice option;
      (** [None] — omitted, [null] or ["auto"] — routes by size
          ({!Service.route}) *)
}

type request =
  | Sample of { inst : instance; count : int; seed : int option }
      (** [count] Fourier-sampling outcomes (1..10^6) *)
  | Solve of { inst : instance; seed : int option }
      (** full HSP solve; returns generators of [H] *)
  | Check_circuit of { inst : instance }
      (** validate and cost the instance without running it *)
  | Stats  (** cache and ledger counters *)
  | Shutdown  (** stop accepting; drain and exit *)

type envelope = { id : Jsonv.t; req : request }
(** A decoded request plus the client's correlation id ([Null] when
    absent). *)

(** Reply classification, mirrored into the ["error"] object of failure
    replies.  [Retryable] is the only kind worth re-sending verbatim
    (probabilistic convergence failure). *)
type error_kind = Malformed | Rejected | Retryable | Crashed

val parse_request : string -> (envelope, string) result
(** Decode one frame payload.  Never raises; the error string is
    client-facing (it becomes a [Malformed] reply). *)

val ok_response : id:Jsonv.t -> (string * Jsonv.t) list -> Jsonv.t
(** [{"id":..,"ok":true, ...fields}] *)

val error_response : id:Jsonv.t -> error_kind -> string -> Jsonv.t
(** [{"id":..,"ok":false,"error":{"kind","retryable","message"}}] *)

(** {2 Framing} *)

val max_frame : int
(** 16 MiB. *)

exception Frame_too_large of int

val read_frame : Unix.file_descr -> string option
(** One frame's payload; [None] on clean EOF at a frame boundary.
    @raise End_of_file on EOF mid-frame.
    @raise Frame_too_large beyond {!max_frame}. *)

val write_frame : Unix.file_descr -> string -> unit
