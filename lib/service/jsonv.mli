(** Minimal JSON values for the [hsp_served] wire protocol.

    The container ships no JSON library, so the protocol carries its
    own: a value type covering the JSON core, a strict
    recursive-descent parser and a compact printer.  Integer lexemes
    without fraction or exponent parse to exact [Int]; everything else
    numeric is [Float].  Object fields preserve wire order; duplicate
    keys are kept (lookup returns the first). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact (single-line) serialisation; strings are escaped per RFC
    8259. *)

val max_depth : int (* hsp-lint: allow unused-export *)
(** Deepest array/object nesting {!of_string} accepts (512). *)

val of_string : string -> (t, string) result
(** Strict parse of exactly one JSON value (trailing garbage is an
    error, as is nesting deeper than {!max_depth}).  Never raises; the
    error string carries a byte offset. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field of an object ([None] on missing field or non-object). *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int] widens to float here; [to_int_opt] does not narrow. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
