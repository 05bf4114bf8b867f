(* Bounded LRU cache for the service layer's reusable prep artifacts.

   Capacity is dual: a hard entry count and an approximate byte budget
   (the caller supplies [bytes_of]; Coset_state.prep_bytes for coset
   buckets, an O(r^2)-words estimate for HNF subgroups).  Eviction is
   strictly least-recently-used and runs until both budgets are
   respected; a single entry larger than the byte budget is still
   admitted alone (the alternative — refusing it — would make the
   cache useless for exactly the expensive artifacts it exists for).

   The structure is an intrusive doubly-linked recency list over a
   Hashtbl, all under one mutex: operations are O(1) plus [bytes_of],
   and the cache is shared between the server's connection threads and
   the executor. *)

type ('k, 'v) node = {
  nkey : 'k;
  nvalue : 'v;
  nbytes : int;
  mutable prev : ('k, 'v) node option;  (* towards MRU *)
  mutable next : ('k, 'v) node option;  (* towards LRU *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

type ('k, 'v) t = {
  max_entries : int;
  max_bytes : int;
  bytes_of : 'v -> int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable mru : ('k, 'v) node option;
  mutable lru : ('k, 'v) node option;
  mutable cur_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

let create ?(max_entries = 64) ?(max_bytes = 256 * 1024 * 1024) ~bytes_of () =
  if max_entries < 1 then invalid_arg "Cache.create: max_entries must be >= 1";
  if max_bytes < 1 then invalid_arg "Cache.create: max_bytes must be >= 1";
  {
    max_entries;
    max_bytes;
    bytes_of;
    table = Hashtbl.create 64;
    mru = None;
    lru = None;
    cur_bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    lock = Mutex.create ();
  }

let locked c f = Mutex.protect c.lock f

(* --- recency list, lock held ------------------------------------- *)

let unlink c node =
  (match node.prev with Some p -> p.next <- node.next | None -> c.mru <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> c.lru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front c node =
  node.prev <- None;
  node.next <- c.mru;
  (match c.mru with Some m -> m.prev <- Some node | None -> c.lru <- Some node);
  c.mru <- Some node

let evict_one c =
  match c.lru with
  | None -> ()
  | Some victim ->
      unlink c victim;
      Hashtbl.remove c.table victim.nkey;
      c.cur_bytes <- c.cur_bytes - victim.nbytes;
      c.evictions <- c.evictions + 1

let rec shrink c =
  if Hashtbl.length c.table > c.max_entries then begin
    evict_one c;
    shrink c
  end
  else if c.cur_bytes > c.max_bytes && Hashtbl.length c.table > 1 then begin
    (* keep at least one entry: an oversized artifact may alone exceed
       the byte budget, and evicting it on admission would thrash *)
    evict_one c;
    shrink c
  end

let add_locked c key value =
  (match Hashtbl.find_opt c.table key with
  | Some old ->
      unlink c old;
      Hashtbl.remove c.table key;
      c.cur_bytes <- c.cur_bytes - old.nbytes
  | None -> ());
  let node = { nkey = key; nvalue = value; nbytes = c.bytes_of value; prev = None; next = None } in
  Hashtbl.replace c.table key node;
  c.cur_bytes <- c.cur_bytes + node.nbytes;
  push_front c node;
  shrink c

(* --- public API --------------------------------------------------- *)

let find c key =
  locked c @@ fun () ->
  match Hashtbl.find_opt c.table key with
  | Some node ->
      c.hits <- c.hits + 1;
      unlink c node;
      push_front c node;
      Some node.nvalue
  | None ->
      c.misses <- c.misses + 1;
      None

let add c key value = locked c @@ fun () -> add_locked c key value

let find_or_add c key build =
  (* The miss path runs [build] OUTSIDE the lock: prep construction can
     be O(|A|) and must not block unrelated lookups.  Two racing
     builders for the same key both compute; the first to finish wins
     the slot and the loser's value is returned to its caller but not
     cached (the executor serialises quantum work, so in practice this
     race does not occur for prep artifacts). *)
  match find c key with
  | Some v -> (v, true)
  | None ->
      let v = build () in
      (locked c @@ fun () ->
       if not (Hashtbl.mem c.table key) then add_locked c key v);
      (v, false)

let mem c key = locked c @@ fun () -> Hashtbl.mem c.table key

let stats c =
  locked c @@ fun () ->
  {
    hits = c.hits;
    misses = c.misses;
    evictions = c.evictions;
    entries = Hashtbl.length c.table;
    bytes = c.cur_bytes;
  }
