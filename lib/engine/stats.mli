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
    {!Dlz_obs.Registry}: [--stats], [--stats-json], the daemon's
    [metrics] verb and bulk [--timings] all read that one sample list
    ({!samples}), and a registry reset zeroes them and forgets which
    strategies ran. *)

type t

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

val record_oracle_check : t -> unit
(** One differential-oracle cross-check completed (any outcome). *)

val record_divergence : t -> string -> cls:string -> unit
(** The named strategy diverged from the oracle with class [cls]
    ("unsound", "imprecise", or "internal"). *)

val samples : t -> Dlz_obs.Registry.sample list
(** Every counter of [t] as a sample ({!Dlz_obs.Family.collect} of its
    families): the one way to read them.  For {!global} this is exactly
    the ["engine"] collector. *)

val consistent : t -> bool
(** [queries t = cache_hits t + cache_misses t + cache_uncacheable t] —
    every query records exactly one disposition, serial or parallel. *)

val query_hist : unit -> Dlz_base.Trace.Hist.t
(** End-to-end query latency: a snapshot merge of the per-disposition
    "cache.hit" / "cache.miss" / "cache.uncacheable" histograms (the
    hot path records each query into exactly one of those). *)

(** {2 Counter reads for the bench harnesses}

    Kept for [perfbench] and [bench/main.ml], which read these totals
    directly. *)

val queries : t -> int
val cache_hits : t -> int
val cache_misses : t -> int

val cache_uncacheable : t -> int
(** Queries on problems with no canonical numeric form. *)

val alloc_words : t -> int
(** Total minor words allocated inside queries (see {!record_alloc}). *)

val hit_alloc_words : t -> int
(** The slice of {!alloc_words} spent on cache hits. *)

val degradations : t -> int
(** Total contained faults, over every strategy and reason. *)
