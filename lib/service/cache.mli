(** Bounded LRU cache for reusable sampler-prep artifacts.

    The service pays O(|A|) coset bucketing or an HNF canonicalisation
    once per {e oracle} and reuses the artifact across requests; this
    cache is where those artifacts live.  Capacity is dual — a hard
    entry count and an approximate byte budget measured by the caller's
    [bytes_of] — and eviction is strictly least-recently-used until
    both budgets hold (a single oversized entry is still admitted
    alone rather than thrashing).  All operations are O(1) amortised,
    mutex-guarded, and safe from any thread. *)

type ('k, 'v) t

type stats = {
  hits : int;  (** lookups that found their key *)
  misses : int;  (** lookups that did not *)
  evictions : int;  (** entries dropped by LRU pressure *)
  entries : int;  (** current population *)
  bytes : int;  (** current approximate footprint *)
}

val create :
  ?max_entries:int -> ?max_bytes:int -> bytes_of:('v -> int) -> unit -> ('k, 'v) t
(** [create ~bytes_of ()] — defaults: 64 entries, 256 MiB.
    @raise Invalid_argument if either budget is < 1. *)

val find : ('k, 'v) t -> 'k -> 'v option (* hsp-lint: allow unused-export *)
(** Lookup; a hit refreshes the entry's recency and ticks [hits],
    a miss ticks [misses]. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit (* hsp-lint: allow unused-export *)
(** Insert (replacing any previous binding) as most-recently-used,
    then evict LRU entries until the budgets hold. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool
(** [find_or_add c k build] returns [(v, hit)].  On a miss, [build]
    runs {e outside} the cache lock (it may be O(|A|)); racing builders
    for the same key both run and the first finished value is kept. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership test without touching recency or hit/miss counters. *)

val stats : ('k, 'v) t -> stats
