(** [hsp_lint]: a source-level pass over the OCaml sources using
    [compiler-libs]' Parsetree.

    Rules (names as written in allowlist comments):

    - [poly-compare] — unqualified [compare], [Stdlib.compare] or
      [Hashtbl.hash].  Only checked where {!config.check_poly} is set
      (the driver sets it for [lib/group], [lib/core], [lib/quantum]
      and [lib/linalg], whose values are group elements, words, states
      and dimension vectors: polymorphic comparison silently diverges
      from the modules' own [equal]/[compare] on non-canonical
      representatives, and walks whole arrays where a typed scalar
      compare was intended).
    - [poly-eq] — [( = )], [( <> )], [( == )] or [( != )] passed as a
      function value (e.g. [~equal:( = )]).  Same scope as
      [poly-compare].
    - [poly-membership] — structural-equality membership: [List.mem],
      [List.memq], [List.assoc]/[assoc_opt]/[mem_assoc]/[remove_assoc],
      [Array.mem]/[memq] applied to a non-literal key, or a search
      combinator ([List.exists], [List.find(_opt)], [List.for_all],
      [List.filter], [Array.exists], ...) whose predicate is an
      equality section [(( = ) x)] or a lambda whose body is a single
      [=]/[<>] with no literal operand.  The containers in the checked
      directories hold group elements, [int array] tuples and oracle
      tags, where the baked-in structural equality diverges from the
      modules' own [equal] on non-canonical representatives — use the
      element type's equality ([List.exists (Int.equal k) xs], a typed
      [equal] inside the predicate) instead.  Literal keys
      ([List.mem "all" rules]) and literal-guard lambdas
      ([fun d -> d <> 2]) stay quiet.  Same scope as [poly-compare].
    - [struct-eq] — an applied [=]/[<>] whose two operands project the
      same shape of data: the same record field on both sides
      ([a.dims = b.dims]) or the same accessor applied on both sides
      ([dims a = dims b]).  Matching labels makes the comparison almost
      certainly structural; use the element type's [equal] (e.g.
      [Backend.dims_equal]) instead.  Known int-returning stdlib
      accessors ([Array.length] etc.) are excluded.  Same scope as
      [poly-compare].
    - [float-eq] — [=]/[<>]/[==]/[!=] applied with a float literal
      operand, anywhere: exact float comparison is almost always a
      tolerance bug in a numerical simulator.
    - [obj-magic] — any use of [Obj.magic], anywhere.
    - [print-stdout] — [Printf.printf], [Format.printf] and the
      [print_*] family, unless {!config.allow_print} (set for [bin/],
      [bench/], [test/] and [examples/]): libraries must log through
      [Logs] or return values, not write to the simulator's stdout.
    - [unused-export] — a [val] in a [lib/**/*.mli] that no other unit
      in [lib], [bin], [bench] or [examples] references; references
      from [test/] do not count.  Checked by {!Unused_export} on the
      typed trees dune builds, not by this Parsetree pass; the
      allowlist comment goes in the [.mli], and an allowlisted [val]
      that no other unit references at all, [test/] included, is a
      finding too.

    A finding on line [L] is suppressed by an allowlist comment
    [(* hsp-lint: allow <rule> [<rule> ...] *)] (or [allow all]) on
    line [L] or [L-1]. *)

type rule =
  | Poly_compare
  | Poly_eq
  | Poly_membership
  | Struct_eq
  | Float_eq
  | Obj_magic
  | Print_stdout

val rule_name : rule -> string (* hsp-lint: allow unused-export *)

type finding = { file : string; line : int; rule : rule; detail : string }

type config = {
  check_poly : bool;  (** enforce [poly-compare] / [poly-eq] *)
  allow_print : bool;  (** drop the [print-stdout] rule *)
}

val config_for_path : string -> config (* hsp-lint: allow unused-export *)
(** [check_poly] under [lib/group], [lib/core], [lib/quantum] and
    [lib/linalg]; [allow_print] under [bin/], [bench/], [test/] and
    [examples/]. *)

(* hsp-lint: allow unused-export *)
val lint_source : config -> file:string -> string -> finding list
(** Parse and lint one compilation unit given as a string.
    @raise Failure if the source does not parse. *)

val lint_file : ?config:config -> string -> finding list
(** Reads the file; [config] defaults to {!config_for_path}. *)

val pp_finding : Format.formatter -> finding -> unit

(** {2 Shared infrastructure}

    The allowlist-comment scan and file reader are reused by
    {!Race_check} and {!Unused_export}, whose rules use the same
    [(* hsp-lint: allow <rule> *)] syntax. *)

type allowlist

val allowlist : string -> allowlist
(** Scan a source string for [hsp-lint: allow] comments. *)

val allow_suppressed : allowlist -> line:int -> rule:string -> bool
(** Whether [rule] (by its printed name, or via ["all"]) is suppressed
    on [line] — the comment may sit on the line itself or the one
    above. *)

val read_file : string -> string

val files_with : string -> string -> string list
(** [files_with suffix path]: [path] itself if it ends in [suffix],
    else every such file under the directory [path], in sorted
    order. *)
