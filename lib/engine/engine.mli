(** The unified dependence-query engine.

    Every consumer — the whole-program analyzer, the vectorizer's
    dependence graph, the CLI, the bench harness — asks its dependence
    questions through this one path: {!iter_pairs} / {!pairs_seq}
    stream the candidate access pairs (write involvement, same array,
    source = the writing reference with textual order breaking ties),
    {!map_pairs} fans a per-pair computation out over an optional
    domain {!Dlz_base.Pool} with deterministic output ordering, and
    {!query} answers one problem through a strategy {!Cascade} behind
    the sharded canonical-form memo cache.  This replaces the two
    formerly independent O(n²) pair loops (analyzer and depgraph),
    whose source/sink orientation had drifted apart. *)

module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Problem = Dlz_deptest.Problem
module Pool = Dlz_base.Pool

type pair = {
  src : Access.t;  (** The writing reference when one exists. *)
  dst : Access.t;
  self : bool;  (** Both ends are the same access occurrence. *)
  problem : Problem.t;
}

val iter_pairs : (pair -> unit) -> Access.t list -> unit
(** [iter_pairs f accs] applies [f] to every candidate dependence pair
    among the accesses, in enumeration order (each unordered pair once,
    including self pairs).  Pairs without at least one write, on
    different arrays, or with no constructible problem are skipped.
    Only one pair is live at a time — the O(n²) candidate set is never
    materialized. *)

val pairs_seq : Access.t list -> pair Seq.t
(** The same enumeration as an on-demand sequence (pairs and their
    problems are built as the sequence is forced). *)

val map_pairs :
  ?pool:Pool.t -> ?chunk:int -> (pair -> 'r) -> Access.t list -> 'r list
(** [map_pairs f accs] is [f] applied to every candidate pair, results
    in enumeration order.  Without a pool (or with a sequential one)
    this runs exactly like {!iter_pairs}.  With a parallel pool, the
    candidate {e index} pairs (two ints each — never the problems) are
    partitioned into chunks ([chunk] candidates each; auto-tuned from
    the pool's observed per-element cost and queue-wait telemetry when
    omitted), dealt to the pool's work-stealing deques (problem
    construction and [f] both run in the workers), and merged back by
    index, so the result is byte-identical to the sequential one for
    any job count, chunk size, or steal schedule.  [f] must be
    domain-safe; the {!query} path (sharded cache, atomic stats) is. *)

val query :
  ?cascade:Cascade.t ->
  ?stats:Stats.t ->
  ?cache:Query.cache ->
  ?budget:Dlz_base.Budget.t ->
  ?chaos:Chaos.t ->
  ?annot:(string * string) list ->
  ?observer:(Query.disposition -> unit) ->
  env:Assume.t ->
  Problem.t ->
  Strategy.result
(** One memoized dependence query ([cascade] defaults to
    {!Cascade.delin}; [stats]/[cache] default to the process-wide
    instances).  Safe to call concurrently from several domains.
    [budget] bounds the cascade (see {!Cascade.run}); degraded results
    are never cached, so a faulted run cannot poison the memo table.
    A problem [chaos] strikes ({!Cascade.struck}) skips the lookup, so
    it is struck on every query whatever the cache holds.
    [annot] rides on the query's trace span (the daemon threads its
    request id through here); [observer] receives the cache
    {!Query.disposition} — see {!Query.memoize}. *)

val query_all :
  ?cascade:Cascade.t ->
  ?stats:Stats.t ->
  ?cache:Query.cache ->
  ?budget:Dlz_base.Budget.t ->
  ?chaos:Chaos.t ->
  ?annot:(string * string) list ->
  ?observer:(Query.disposition -> unit) ->
  ?pool:Pool.t ->
  ?chunk:int ->
  env:Assume.t ->
  Access.t list ->
  (pair * Strategy.result) list
(** {!map_pairs} composed with {!query}.  [observer] must be
    domain-safe when a pool is given — it may fire from any worker. *)

val reset_metrics : unit -> unit
(** Clears the global cache and the trace event buffers, then runs
    every reset hook in the {!Dlz_obs.Registry} — global stats
    (including the allocations-per-query counters), pool steal/
    auto-chunk telemetry, latency histograms (queue-wait included),
    and any serve-side collectors a live daemon registered.  Every
    reporting entry point calls this before the work it reports on,
    so back-to-back [--stats] runs never accumulate. *)
