(** The unified dependence-query engine.

    Every consumer — the whole-program analyzer, the vectorizer's
    dependence graph, the CLI, the daemon, the bench harness — asks its
    dependence questions through this one path: {!iter_pairs} /
    {!pairs_seq} stream the candidate access pairs (write involvement,
    same array, source = the writing reference with textual order
    breaking ties), {!query} answers one problem through a strategy
    {!Cascade} behind the sharded canonical-form memo cache, and
    {!query_all} answers every pair of a program, optionally fanned out
    over a domain {!Dlz_base.Pool} with deterministic output order.

    The [(pair * result)] list {!query_all} returns is the one pair pass
    over a program: dependence rows ({!Analyze.deps_of_results}), the
    vectorizer's graph and the per-loop report are pure functions of
    it, so each pair is asked once however many views are built. *)

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
  env:Assume.t ->
  Access.t list ->
  (pair * Strategy.result) list
(** {!query} applied to every candidate pair of {!iter_pairs}, results
    in enumeration order.  Without a pool (or with a sequential one)
    the pairs are answered one at a time in that order.  With a
    parallel pool, the candidate {e index} pairs (two ints each — never
    the problems) go through {!Pool.map} (problem construction and the
    query both run in the workers) and are merged back by index, so the
    list is byte-identical to the sequential one for any job count or
    schedule.  [observer] must be domain-safe when a pool is given — it
    may fire from any worker. *)

val reset_metrics : unit -> unit
(** Clears the global cache and the trace event buffers, then runs
    every reset hook in the {!Dlz_obs.Registry} — global stats
    (including the allocations-per-query counters), latency
    histograms, and any serve-side collectors a live daemon
    registered.  Every
    reporting entry point calls this before the work it reports on,
    so back-to-back [--stats] runs never accumulate. *)
