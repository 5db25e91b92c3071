(** Canonical dependence queries and the bounded memo cache.

    Identical dependence equations arise over and over from different
    access pairs (every [A(i) = A(i-1)]-shaped statement of a program
    yields the same system).  A query is canonicalized — terms sorted,
    sign- and gcd-normalized, equations sorted — and the result of the
    first solve is replayed for every later problem with the same
    canonical form and cascade.  Canonicalization preserves the integer
    solution set exactly, so a cached result (verdict, direction
    vectors, distances) is valid verbatim for every problem sharing the
    key.  Only fully numeric problems are cacheable; symbolic problems
    (whose answers may depend on the assumption environment) are always
    solved afresh and counted as uncacheable. *)

module Problem = Dlz_deptest.Problem

val key_of : cascade:string -> Problem.t -> string option
(** The cache key: cascade name, a NUL byte, then the flat canonical
    encoding ({!Problem.Keybuf}); [None] for problems with no integer
    form, or whose normalization overflows (uncacheable).  The hot path
    never builds this string — it hashes and compares the per-domain
    key buffer in place — but the materialized form is what miss-path
    inserts store, and what tests use to count distinct keys. *)

val hash_of_key : string -> int
(** The cache's hash of a materialized key: djb2-xor over its bytes
    (from 5381, [h * 33 lxor byte]), masked nonnegative.  The
    snapshot format uses the same fold for its tag and payload
    checksum. *)

type cache
(** A domain-safe sharded cache: entries are distributed over
    [hash key mod shards] shards.  Each shard is an open-hashed bucket
    table whose buckets are [Atomic.t] immutable lists, so probes are
    lock-free loads; only writers (insert, flush, clear) serialize on
    the per-shard mutex, and shard records are padded apart so one
    shard's insert counter never false-shares a neighbor's cache line.
    Each shard is bounded by its own slice of the capacity and an
    overflowing shard flushes only itself — one hot shard no longer
    evicts the whole cache, serial or parallel. *)

val create_cache : ?capacity:int -> ?shards:int -> unit -> cache
(** [capacity] (default 8192) bounds the total entry count across
    [shards] shards; each shard holds at most
    [max 1 (capacity / shards)] entries and is flushed wholesale on its
    own overflow (counted in {!Stats} and per shard).  [shards]
    defaults to a power of two at least twice the host's recommended
    domain count, never below the historical 8.  Raises
    [Invalid_argument] when either is [< 1]. *)

val global_cache : cache
(** Backs the default engine entry points. *)

val clear : cache -> unit
(** Empties every shard and zeroes the per-shard flush counters. *)

val size : cache -> int
(** Total entries across shards. *)

val shards : cache -> int
val shard_capacity : cache -> int

val shard_sizes : cache -> int array
(** Current entry count of each shard. *)

val shard_flushes : cache -> int array
(** Times each shard was flushed since creation (or {!clear}). *)

val dump : cache -> (string * Strategy.result) list
(** Every cached entry as [(materialized key, result)], sorted by key —
    a deterministic snapshot of the cache contents (two caches holding
    the same entries dump identically, whatever the insertion order).
    Degraded results are never cached, so every dumped result is clean.
    Takes each shard's writer lock in turn; call from one domain while
    no analysis is in flight. *)

val load_entries :
  ?pool:Dlz_base.Pool.t -> cache -> (string * Strategy.result) array -> int
(** [load_entries cache kvs] bulk-inserts pre-solved entries (keys in
    the {!key_of} materialized form), marking them {e warm}: a later
    hit on one records a warm {!Stats.record_hit}.  Entries are
    grouped by shard first, so with [pool] the shards load in parallel
    without contending.  Respects the per-shard
    capacity (overflow entries are dropped, never flushed for) and
    skips keys already present; returns the number actually
    inserted. *)

type disposition = Hit_warm | Hit_cold | Miss | Uncacheable
(** Where a query's answer came from: a hit on a snapshot-loaded
    entry, a hit on an entry solved this run, a fresh solve, or an
    uncacheable (symbolic) problem solved afresh. *)

val memoize :
  ?stats:Stats.t ->
  ?cache:cache ->
  budget:Dlz_base.Budget.t option ->
  chaos:Chaos.t option ->
  ?annot:(string * string) list ->
  ?observer:(disposition -> unit) ->
  env:Dlz_symbolic.Assume.t ->
  Cascade.t ->
  Problem.t ->
  Strategy.result
(** [memoize ~budget ~chaos ~env cascade p] returns the cached result
    for [p]'s canonical form under [cascade], or solves it with
    {!Cascade.run} and stores it; [budget] and [chaos] are
    {!Engine.query}'s own options, passed through ([None] takes
    {!Cascade.run}'s defaults).  Records query/hit/miss/uncacheable
    counters and the query's minor-heap allocation delta
    ({!Stats.record_alloc}); the hit path allocates nothing — flat key
    encoding into a per-domain buffer, in-place hash and compare,
    lock-free bucket load — and neither does the call itself, so a hit
    through {!Engine.query} costs 0 minor words.

    [annot] appends attributes to the query span's begin event (the
    serve daemon threads the request id through here); the list must
    be immutable data fixed at call time, since span args render at
    export.  [observer], when given, is called once per query with the
    cache {!disposition} — the hook per-client attribution hangs off
    without touching the shared counters.  A problem [chaos] strikes
    ({!Cascade.struck}) skips the lookup: the query counts as a miss
    and is solved, and its result cached unless degraded. *)
