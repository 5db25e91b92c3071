(** Engine instrumentation: per-strategy attempt/decision counters and
    memo-cache hit/miss accounting — safe to record from any domain.

    One {!t} accumulates everything the engine observes; verdict
    provenance on individual results names the deciding strategy, the
    stats aggregate how often each strategy was tried, decided, or
    passed.  Every counter is an [Atomic.t] cell of a
    {!Dlz_obs.Family}, so parallel analysis ([--jobs N]) records
    without losing increments and [queries = hits + misses +
    uncacheable] stays exact.  A process-wide {!global} instance backs
    the default engine entry points so that command-line tools
    ([vic --stats]) and the bench harness can report without threading
    state.  {!global}'s families are the ["engine"] collector in
    {!Dlz_obs.Registry}: [--stats], [--stats-json] and the daemon's
    [metrics] verb all read that one sample list, and a registry reset
    zeroes them and forgets which strategies ran. *)

type t

type strategy_counters = {
  attempts : int;  (** Times the strategy was run. *)
  independent : int;  (** Decisions proving independence. *)
  dependent : int;  (** Decisions reporting (possible) dependence. *)
  passed : int;  (** Runs that declined to decide. *)
}
(** A consistent snapshot of one strategy's counters (plain ints, read
    atomically when the row is taken). *)

val create : unit -> t
val global : t
val record_query : t -> unit

val record_hit : t -> warm:bool -> unit
(** A cache hit; [warm] when it landed on an entry bulk-loaded from a
    snapshot.  The warm/cold split shows how much of the hit traffic a
    persisted cache paid for. *)

val record_miss : t -> unit
val record_uncacheable : t -> unit
val record_flush : t -> unit

val record_snapshot_loaded : t -> int -> unit
(** [n] entries admitted into the cache from a snapshot file. *)

val record_snapshot_load : t -> unit
(** One snapshot file validated and bulk-loaded. *)

val record_snapshot_reject : t -> unit
(** One snapshot file refused — missing, truncated, corrupt, or keyed
    by a different strategy-set/version hash.  The engine cold-starts;
    this counter is the only trace the refusal leaves. *)

val record_snapshot_save : t -> unit
(** One snapshot file written. *)

val record_snapshot_save_fail : t -> unit
(** One snapshot write that failed and was contained — a full disk, a
    permission error, or a chaos strike at the save boundary.  The
    failed write leaves no partial file behind (the tmp file is
    removed); this counter is the only trace it leaves. *)

val record_attempt : t -> string -> unit
val record_decision : t -> string -> Dlz_deptest.Verdict.t -> unit
val record_pass : t -> string -> unit

val record_alloc : t -> hit:bool -> int -> unit
(** [record_alloc t ~hit words] accounts a query's minor-heap
    allocation ([Gc.minor_words] delta, clamped at 0); [hit] routes it
    additionally into the cache-hit bucket, whose per-query average is
    the "allocation-free hot path" acceptance metric (~0 after
    warm-up). *)

val record_degradation : t -> string -> reason:string -> unit
(** A fault contained while the named strategy ran (or was about to
    run): the result was degraded conservatively for [reason]
    ("overflow:mul", "budget:fuel", "chaos:raise", …). *)

val queries : t -> int
val cache_hits : t -> int

val warm_hits : t -> int
(** The slice of {!cache_hits} served by snapshot-loaded entries. *)

val cold_hits : t -> int
(** [cache_hits - warm_hits]: hits on entries solved this run. *)

val cache_misses : t -> int

val snapshot_loaded : t -> int
(** Entries admitted from snapshot files since the last reset. *)

val snapshot_loads : t -> int
(** Snapshot files accepted (validated, bulk-loaded). *)

val snapshot_rejects : t -> int
(** Snapshot files refused; each refusal cold-starts the cache. *)

val snapshot_saves : t -> int
(** Snapshot files written. *)

val snapshot_save_fails : t -> int
(** Snapshot writes that failed and were contained. *)

val cache_uncacheable : t -> int
(** Queries on problems with no canonical numeric form. *)

val cache_flushes : t -> int
(** Times a bounded cache shard was emptied. *)

val consistent : t -> bool
(** [queries t = cache_hits t + cache_misses t + cache_uncacheable t] —
    every query records exactly one disposition, serial or parallel. *)

val hit_ratio : t -> float
(** Hits over (hits + misses); [0.] before any cacheable query. *)

val alloc_words : t -> int
(** Total minor words allocated inside queries (see {!record_alloc}). *)

val hit_alloc_words : t -> int
(** The slice of {!alloc_words} spent on cache hits. *)

val allocs_per_hit : t -> float
(** [hit_alloc_words / cache_hits]; [0.] before any hit.  Trends to ~0
    once the per-domain key buffers are warm. *)

val rows : t -> (string * strategy_counters) list
(** Per-strategy counter snapshots, sorted by strategy name. *)

val degradation_rows : t -> ((string * string) * int) list
(** [((strategy, reason), count)] for every recorded degradation,
    sorted. *)

val degradations : t -> int
(** Total contained faults: the sum over {!degradation_rows}. *)

val record_oracle_check : t -> unit
(** One differential-oracle cross-check completed (any outcome). *)

val oracle_checks : t -> int

val record_divergence : t -> string -> cls:string -> unit
(** The named strategy diverged from the oracle with class [cls]
    ("unsound", "imprecise", or "internal"). *)

val divergence_rows : t -> ((string * string) * int) list
(** [((strategy, class), count)] for every recorded divergence,
    sorted. *)

val query_hist : unit -> Dlz_base.Trace.Hist.t
(** End-to-end query latency: a snapshot merge of the per-disposition
    "cache.hit" / "cache.miss" / "cache.uncacheable" histograms (the
    hot path records each query into exactly one of those). *)
