module Verdict = Dlz_deptest.Verdict
module Trace = Dlz_base.Trace

(* Internal counters are Atomic.t so concurrent domains can record
   without losing increments; the strategies table is guarded by a
   mutex (Hashtbl is not safe under concurrent add/resize). *)

type atomic_counters = {
  a_attempts : int Atomic.t;
  a_independent : int Atomic.t;
  a_dependent : int Atomic.t;
  a_passed : int Atomic.t;
}

type strategy_counters = {
  attempts : int;
  independent : int;
  dependent : int;
  passed : int;
}

type t = {
  q_queries : int Atomic.t;
  q_hits : int Atomic.t;
  q_warm_hits : int Atomic.t;  (* hits on snapshot-loaded entries *)
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
  lock : Mutex.t;  (* guards [strategies], [degradations], [divergences] *)
  strategies : (string, atomic_counters) Hashtbl.t;
  degradations : (string * string, int Atomic.t) Hashtbl.t;
  divergences : (string * string, int Atomic.t) Hashtbl.t;
}

let create () =
  {
    q_queries = Atomic.make 0;
    q_hits = Atomic.make 0;
    q_warm_hits = Atomic.make 0;
    q_misses = Atomic.make 0;
    q_uncacheable = Atomic.make 0;
    q_flushes = Atomic.make 0;
    q_alloc_words = Atomic.make 0;
    q_hit_alloc_words = Atomic.make 0;
    s_loaded = Atomic.make 0;
    s_loads = Atomic.make 0;
    s_rejects = Atomic.make 0;
    s_saves = Atomic.make 0;
    s_save_fails = Atomic.make 0;
    o_checks = Atomic.make 0;
    lock = Mutex.create ();
    strategies = Hashtbl.create 16;
    degradations = Hashtbl.create 16;
    divergences = Hashtbl.create 16;
  }

let global = create ()

let reset t =
  Atomic.set t.q_queries 0;
  Atomic.set t.q_hits 0;
  Atomic.set t.q_warm_hits 0;
  Atomic.set t.q_misses 0;
  Atomic.set t.q_uncacheable 0;
  Atomic.set t.q_flushes 0;
  Atomic.set t.q_alloc_words 0;
  Atomic.set t.q_hit_alloc_words 0;
  Atomic.set t.s_loaded 0;
  Atomic.set t.s_loads 0;
  Atomic.set t.s_rejects 0;
  Atomic.set t.s_saves 0;
  Atomic.set t.s_save_fails 0;
  Atomic.set t.o_checks 0;
  Mutex.lock t.lock;
  Hashtbl.reset t.strategies;
  Hashtbl.reset t.degradations;
  Hashtbl.reset t.divergences;
  Mutex.unlock t.lock

let counters t name =
  Mutex.lock t.lock;
  let c =
    match Hashtbl.find_opt t.strategies name with
    | Some c -> c
    | None ->
        let c =
          {
            a_attempts = Atomic.make 0;
            a_independent = Atomic.make 0;
            a_dependent = Atomic.make 0;
            a_passed = Atomic.make 0;
          }
        in
        Hashtbl.add t.strategies name c;
        c
  in
  Mutex.unlock t.lock;
  c

let record_query t = Atomic.incr t.q_queries
let record_hit t = Atomic.incr t.q_hits
let record_warm_hit t = Atomic.incr t.q_warm_hits
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
let record_attempt t name = Atomic.incr (counters t name).a_attempts

let record_decision t name verdict =
  let c = counters t name in
  match verdict with
  | Verdict.Independent -> Atomic.incr c.a_independent
  | Verdict.Dependent | Verdict.Inapplicable -> Atomic.incr c.a_dependent

let record_pass t name = Atomic.incr (counters t name).a_passed

let record_degradation t name ~reason =
  let key = (name, reason) in
  Mutex.lock t.lock;
  let c =
    match Hashtbl.find_opt t.degradations key with
    | Some c -> c
    | None ->
        let c = Atomic.make 0 in
        Hashtbl.add t.degradations key c;
        c
  in
  Mutex.unlock t.lock;
  Atomic.incr c

let degradation_rows t =
  Mutex.lock t.lock;
  let snap =
    Hashtbl.fold
      (fun key c acc -> (key, Atomic.get c) :: acc)
      t.degradations []
  in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) snap

let degradations t =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (degradation_rows t)

let record_oracle_check t = Atomic.incr t.o_checks
let oracle_checks t = Atomic.get t.o_checks

let record_divergence t name ~cls =
  let key = (name, cls) in
  Mutex.lock t.lock;
  let c =
    match Hashtbl.find_opt t.divergences key with
    | Some c -> c
    | None ->
        let c = Atomic.make 0 in
        Hashtbl.add t.divergences key c;
        c
  in
  Mutex.unlock t.lock;
  Atomic.incr c

let divergence_rows t =
  Mutex.lock t.lock;
  let snap =
    Hashtbl.fold
      (fun key c acc -> (key, Atomic.get c) :: acc)
      t.divergences []
  in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) snap

let queries t = Atomic.get t.q_queries
let alloc_words t = Atomic.get t.q_alloc_words
let hit_alloc_words t = Atomic.get t.q_hit_alloc_words
let cache_hits t = Atomic.get t.q_hits
let warm_hits t = Atomic.get t.q_warm_hits
let cold_hits t = Atomic.get t.q_hits - Atomic.get t.q_warm_hits
let cache_misses t = Atomic.get t.q_misses
let cache_uncacheable t = Atomic.get t.q_uncacheable
let cache_flushes t = Atomic.get t.q_flushes
let snapshot_loaded t = Atomic.get t.s_loaded
let snapshot_loads t = Atomic.get t.s_loads
let snapshot_rejects t = Atomic.get t.s_rejects
let snapshot_saves t = Atomic.get t.s_saves
let snapshot_save_fails t = Atomic.get t.s_save_fails

let consistent t =
  queries t = cache_hits t + cache_misses t + cache_uncacheable t

let per q n = if n = 0 then 0.0 else float_of_int q /. float_of_int n

let allocs_per_hit t = per (hit_alloc_words t) (Atomic.get t.q_hits)

let hit_ratio t =
  let total = cache_hits t + cache_misses t in
  if total = 0 then 0.0 else float_of_int (cache_hits t) /. float_of_int total

let query_hist () =
  Trace.Hist.merged
    [ Trace.hist "cache.hit"; Trace.hist "cache.miss";
      Trace.hist "cache.uncacheable" ]

let rows t =
  Mutex.lock t.lock;
  let snap =
    Hashtbl.fold
      (fun name c acc ->
        ( name,
          {
            attempts = Atomic.get c.a_attempts;
            independent = Atomic.get c.a_independent;
            dependent = Atomic.get c.a_dependent;
            passed = Atomic.get c.a_passed;
          } )
        :: acc)
      t.strategies []
  in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) snap

(* Every counter above, rendered as one scrapeable collector.  The
   samples are built at scrape time from the live atomics, so the
   query path pays nothing for being exposed. *)
let obs_samples t =
  let open Dlz_obs.Registry in
  let c ?labels name help v = sample ~help ?labels name (Counter v) in
  let base =
    [
      c "vic_engine_queries_total" "dependence queries" (queries t);
      c
        ~labels:[ ("temp", "warm") ]
        "vic_engine_cache_hits_total" "cache hits by temperature"
        (warm_hits t);
      c
        ~labels:[ ("temp", "cold") ]
        "vic_engine_cache_hits_total" "cache hits by temperature"
        (cold_hits t);
      c "vic_engine_cache_misses_total" "cache misses" (cache_misses t);
      c "vic_engine_cache_uncacheable_total" "uncacheable queries"
        (cache_uncacheable t);
      c "vic_engine_cache_flushes_total" "shard flushes" (cache_flushes t);
      c "vic_engine_snapshot_loaded_entries_total"
        "entries bulk-loaded from snapshots" (snapshot_loaded t);
      c "vic_engine_snapshot_loads_total" "snapshot files accepted"
        (snapshot_loads t);
      c "vic_engine_snapshot_rejects_total" "snapshot files refused"
        (snapshot_rejects t);
      c "vic_engine_snapshot_saves_total" "snapshot files written"
        (snapshot_saves t);
      c "vic_engine_snapshot_save_fails_total"
        "snapshot writes that failed (contained)" (snapshot_save_fails t);
      c "vic_engine_alloc_minor_words_total"
        "minor words allocated inside queries" (alloc_words t);
      c "vic_engine_hit_alloc_minor_words_total"
        "minor words allocated by cache hits" (hit_alloc_words t);
      c "vic_engine_oracle_checks_total" "differential oracle checks"
        (oracle_checks t);
    ]
  in
  let strategies =
    List.concat_map
      (fun (name, sc) ->
        let l = [ ("strategy", name) ] in
        [
          c ~labels:l "vic_engine_strategy_attempts_total" "strategy attempts"
            sc.attempts;
          c
            ~labels:(l @ [ ("verdict", "independent") ])
            "vic_engine_strategy_decisions_total" "strategy decisions"
            sc.independent;
          c
            ~labels:(l @ [ ("verdict", "dependent") ])
            "vic_engine_strategy_decisions_total" "strategy decisions"
            sc.dependent;
          c ~labels:l "vic_engine_strategy_passes_total" "strategy passes"
            sc.passed;
        ])
      (rows t)
  in
  let degradations =
    List.map
      (fun ((name, reason), n) ->
        c
          ~labels:[ ("strategy", name); ("reason", reason) ]
          "vic_engine_degradations_total" "contained strategy faults" n)
      (degradation_rows t)
  in
  let divergences =
    List.map
      (fun ((name, cls), n) ->
        c
          ~labels:[ ("strategy", name); ("class", cls) ]
          "vic_engine_divergences_total" "oracle divergences" n)
      (divergence_rows t)
  in
  base @ strategies @ degradations @ divergences

let () =
  Dlz_obs.Registry.register ~name:"engine"
    ~reset:(fun () -> reset global)
    (fun () -> obs_samples global)
