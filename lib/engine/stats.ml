module Verdict = Dlz_deptest.Verdict
module Trace = Dlz_base.Trace
module F = Dlz_obs.Family

(* Every counter is a cell of a [Dlz_obs.Family]: an [Atomic.t] the
   recording domain bumps directly.  The per-strategy, degradation and
   divergence families are looked up per record and forget their
   cells on a reset, so a reset also forgets which strategies ran. *)

type strategy_cell = {
  a_attempts : int Atomic.t;
  a_independent : int Atomic.t;
  a_dependent : int Atomic.t;
  a_passed : int Atomic.t;
}

type t = {
  group : F.group;
  q_queries : int Atomic.t;
  q_warm_hits : int Atomic.t;  (* hits on snapshot-loaded entries *)
  q_cold_hits : int Atomic.t;
  q_misses : int Atomic.t;
  q_uncacheable : int Atomic.t;
  q_flushes : int Atomic.t;
  q_alloc_words : int Atomic.t;  (* minor words allocated inside queries *)
  q_hit_alloc_words : int Atomic.t;  (* ... by cache hits only *)
  s_loaded : int Atomic.t;  (* entries bulk-loaded from snapshots *)
  s_loads : int Atomic.t;  (* snapshot files accepted *)
  s_rejects : int Atomic.t;  (* snapshot files refused (cold start) *)
  s_saves : int Atomic.t;  (* snapshot files written *)
  s_save_fails : int Atomic.t;  (* snapshot writes that failed (contained) *)
  o_checks : int Atomic.t;
  strategies : strategy_cell F.t;
  degradations : int Atomic.t F.t;
  divergences : int Atomic.t F.t;
}

let create () =
  let group = F.group () in
  let one name help = F.cell (F.counter ~group ~help name) [] in
  let hits =
    F.counter ~group ~labels:[ "temp" ] ~help:"cache hits by temperature"
      "vic_engine_cache_hits_total"
  in
  let strategies =
    F.make ~group ~labels:[ "strategy" ] ~forget:true
      ~help:"strategy attempts"
      ~create:(fun () ->
        {
          a_attempts = Atomic.make 0;
          a_independent = Atomic.make 0;
          a_dependent = Atomic.make 0;
          a_passed = Atomic.make 0;
        })
      ~clear:ignore
      ~read:(fun c -> Dlz_obs.Registry.Counter (Atomic.get c.a_attempts))
      "vic_engine_strategy_attempts_total"
  in
  let per_strategy ?label help name get =
    ignore
      (F.view ~group ?label ~help
         ~read:(fun c -> Dlz_obs.Registry.Counter (Atomic.get (get c)))
         name strategies)
  in
  per_strategy ~label:("verdict", "independent") "strategy decisions"
    "vic_engine_strategy_decisions_total" (fun c -> c.a_independent);
  per_strategy ~label:("verdict", "dependent") "strategy decisions"
    "vic_engine_strategy_decisions_total" (fun c -> c.a_dependent);
  per_strategy "strategy passes" "vic_engine_strategy_passes_total" (fun c ->
      c.a_passed);
  let faults label help name =
    F.counter ~group ~labels:[ "strategy"; label ] ~forget:true ~help name
  in
  {
    group;
    q_queries = one "vic_engine_queries_total" "dependence queries";
    q_warm_hits = F.cell hits [ "warm" ];
    q_cold_hits = F.cell hits [ "cold" ];
    q_misses = one "vic_engine_cache_misses_total" "cache misses";
    q_uncacheable =
      one "vic_engine_cache_uncacheable_total" "uncacheable queries";
    q_flushes = one "vic_engine_cache_flushes_total" "shard flushes";
    q_alloc_words =
      one "vic_engine_alloc_minor_words_total"
        "minor words allocated inside queries";
    q_hit_alloc_words =
      one "vic_engine_hit_alloc_minor_words_total"
        "minor words allocated by cache hits";
    s_loaded =
      one "vic_engine_snapshot_loaded_entries_total"
        "entries bulk-loaded from snapshots";
    s_loads = one "vic_engine_snapshot_loads_total" "snapshot files accepted";
    s_rejects = one "vic_engine_snapshot_rejects_total" "snapshot files refused";
    s_saves = one "vic_engine_snapshot_saves_total" "snapshot files written";
    s_save_fails =
      one "vic_engine_snapshot_save_fails_total"
        "snapshot writes that failed (contained)";
    o_checks = one "vic_engine_oracle_checks_total" "differential oracle checks";
    strategies;
    degradations =
      faults "reason" "contained strategy faults" "vic_engine_degradations_total";
    divergences =
      faults "class" "oracle divergences" "vic_engine_divergences_total";
  }

let global = create ()
let () = F.register ~name:"engine" global.group
let record_query t = Atomic.incr t.q_queries

let record_hit t ~warm =
  Atomic.incr (if warm then t.q_warm_hits else t.q_cold_hits)

let record_miss t = Atomic.incr t.q_misses
let record_uncacheable t = Atomic.incr t.q_uncacheable
let record_flush t = Atomic.incr t.q_flushes

(* Snapshot (persistent-cache) accounting: one [load] or [reject] per
   file the loader looked at, [loaded] entries admitted in total, one
   [save] per snapshot written. *)
let record_snapshot_loaded t n =
  if n > 0 then ignore (Atomic.fetch_and_add t.s_loaded n)

let record_snapshot_load t = Atomic.incr t.s_loads
let record_snapshot_reject t = Atomic.incr t.s_rejects
let record_snapshot_save t = Atomic.incr t.s_saves
let record_snapshot_save_fail t = Atomic.incr t.s_save_fails

(* [words] is a [Gc.minor_words] delta measured around one query (the
   telemetry instrumentation itself is excluded by the measurement
   window in [Query.memoize]). *)
let record_alloc t ~hit words =
  let words = max 0 words in
  ignore (Atomic.fetch_and_add t.q_alloc_words words);
  if hit then ignore (Atomic.fetch_and_add t.q_hit_alloc_words words)

let strategy t name = F.cell t.strategies [ name ]
let record_attempt t name = Atomic.incr (strategy t name).a_attempts

let record_decision t name verdict =
  let c = strategy t name in
  match verdict with
  | Verdict.Independent -> Atomic.incr c.a_independent
  | Verdict.Dependent | Verdict.Inapplicable -> Atomic.incr c.a_dependent

let record_pass t name = Atomic.incr (strategy t name).a_passed

let record_degradation t name ~reason =
  Atomic.incr (F.cell t.degradations [ name; reason ])

let record_divergence t name ~cls =
  Atomic.incr (F.cell t.divergences [ name; cls ])

let record_oracle_check t = Atomic.incr t.o_checks
let samples t = F.collect t.group

let degradations t =
  List.fold_left
    (fun acc (_, c) -> acc + Atomic.get c)
    0 (F.cells t.degradations)

let queries t = Atomic.get t.q_queries
let alloc_words t = Atomic.get t.q_alloc_words
let hit_alloc_words t = Atomic.get t.q_hit_alloc_words
let cache_hits t = Atomic.get t.q_warm_hits + Atomic.get t.q_cold_hits
let cache_misses t = Atomic.get t.q_misses
let cache_uncacheable t = Atomic.get t.q_uncacheable

let consistent t =
  queries t = cache_hits t + cache_misses t + cache_uncacheable t

let query_hist () =
  Trace.Hist.merged
    [ Trace.hist "cache.hit"; Trace.hist "cache.miss";
      Trace.hist "cache.uncacheable" ]
