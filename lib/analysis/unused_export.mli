(** The [unused-export] rule: a [val] in a [lib/**/*.mli] that no other
    unit in [lib], [bin], [bench] or [examples] references.  References
    from [test/] do not count, so code whose only consumer is its own
    test is a finding.

    The pass reads the typed trees dune builds ([dune build @check]):
    each [.cmti] under [lib] gives its unit's top-level [val]s, each
    [.cmt] under the consumer directories and [test/] the value paths
    it mentions ([Texp_ident]).  Typing has already resolved [open]s;
    local module aliases ([module Zm = Numtheory.Zmatrix], and under
    [let module]) are expanded here.  A finding on the [val]'s line [L]
    is suppressed by [(* hsp-lint: allow unused-export *)] on line [L]
    or [L-1] of the [.mli], for a reference a test compares against or
    a fixture tests build instances from.  The allowlist cannot go
    stale: an allowlisted [val] that no other unit references at all,
    [test/] included, is a finding of its own. *)

type export = {
  lib : string;  (** dune's library wrapper, e.g. ["Hsp"]; [""] if unwrapped *)
  unit : string;  (** e.g. ["Abelian_hsp"] *)
  name : string;
  file : string;  (** the [.mli], relative to the build root *)
  line : int;
}

type reference = {
  src : string;  (** the referencing unit's source, e.g. ["bin/hsp_cli.ml"] *)
  path : string list;  (** module components then the value name *)
}

(* hsp-lint: allow unused-export *)
val refs_of_structure : Typedtree.structure -> string list list
(** Every value path the structure references, local module aliases
    expanded and dune's mangled unit names mapped back to source names
    ([Hsp__Abelian_hsp] → [Abelian_hsp], [dune__exe__Hsp_cli] →
    [Hsp_cli]). *)

(* hsp-lint: allow unused-export *)
val findings :
  exports:export list -> refs:reference list -> mli_source:(string -> string) -> Lint.finding list
(** Only references from a unit other than the export's own count.
    An export no reference from a consumer directory names is a
    finding unless allowlisted in its [.mli] ([mli_source] reads it);
    an allowlisted one is a finding when no reference names it at
    all, with a detail saying so. *)

val check : lib:string -> Lint.finding list
(** Run from the build root: the findings for the [.cmti] files under
    [lib], allowlist applied.
    @raise Failure if [lib] has [.mli] files but no [.cmti]. *)
