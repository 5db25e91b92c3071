(* Tests for the multicore analysis path: the domain pool itself
   (lib/base/pool.ml), streaming pair enumeration vs the legacy list,
   parallel determinism (any --jobs count must reproduce the serial
   output exactly), and the domain-safety of the sharded query cache
   and atomic stats under concurrent hammering.

   The parallelism width is taken from DLZ_TEST_JOBS (default 4); CI on
   constrained runners sets it to 2 via the @matrix-ci alias
   (test/ci_matrix.sh).  The determinism properties are width-independent, so a
   smaller width only reduces scheduling variety, never coverage. *)

module Pool = Dlz_base.Pool
module Prng = Dlz_base.Prng
module Trace = Dlz_base.Trace
module Verdict = Dlz_deptest.Verdict
module Access = Dlz_ir.Access
module F77 = Dlz_frontend.F77_parser
module Pipeline = Dlz_passes.Pipeline
module Corpus = Dlz_corpus.Corpus
module Progen = Dlz_driver.Progen
module Workload = Dlz_driver.Workload
module Engine = Dlz_engine.Engine
module Strategy = Dlz_engine.Strategy
module Analyze = Dlz_engine.Analyze
module Query = Dlz_engine.Query
module Stats = Dlz_engine.Stats
module Depgraph = Dlz_vec.Depgraph
module Chaos = Dlz_engine.Chaos

(* The cache-accounting tests below assert that every distinct key gets
   inserted — but degraded results are deliberately never cached, so a
   @matrix-ci chaos run (DLZ_CHAOS set) would violate the arithmetic.  Those
   tests check cache bookkeeping, not containment; run them with
   injection off and restore whatever was configured. *)
let without_chaos f () =
  let saved = Chaos.current () in
  Chaos.set_current None;
  Fun.protect ~finally:(fun () -> Chaos.set_current saved) f

let prepare src = Pipeline.prepare_program (F77.parse src)

let sphot_prog =
  Pipeline.prepare_program
    (Corpus.generate (List.find (fun s -> s.Corpus.name = "SPHOT") Corpus.riceps))

(* n statements with n distinct dependence distances: every pair yields
   a numeric (cacheable) problem and the canonical forms are plentiful
   and mostly distinct — the workload for cache-capacity and hammering
   tests. *)
let many_distances_src n =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "      DIMENSION A(500)\n      DO I = 0, 99\n";
  for k = 1 to n do
    Buffer.add_string buf (Printf.sprintf "        A(I+%d) = A(I)\n" k)
  done;
  Buffer.add_string buf "      ENDDO\n";
  Buffer.contents buf

let problems_of_prog prog =
  let accs, env = Access.of_program prog in
  ( List.of_seq
      (Seq.map (fun (pr : Engine.pair) -> pr.Engine.problem)
         (Engine.pairs_seq accs)),
    env )

(* --- Pool ----------------------------------------------------------------- *)

(* The chunk size follows the input length, so lengths below and well
   above 8 x width cover one-element chunks, a ragged last chunk and
   multi-element chunks. *)
let test_pool_map_matches_array_map () =
  let f x = (x * x) - (3 * x) + 7 in
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          let arr = Array.init n (fun i -> i - 50) in
          let got = Pool.with_pool ~domains (fun p -> Pool.map p f arr) in
          Alcotest.(check (array int))
            (Printf.sprintf "domains=%d n=%d" domains n)
            (Array.map f arr) got)
        [ 1; 3; 16; 101; 1000 ])
    [ 1; 2; Width.jobs ]

let test_pool_empty_input () =
  Width.with_pool (fun p ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map p (fun x -> x) [||]))

let test_pool_exception_propagates () =
  Width.with_pool (fun p ->
      Alcotest.check_raises "worker exception reaches caller"
        (Failure "boom") (fun () ->
          ignore
            (Pool.map p
               (fun x -> if x = 37 then failwith "boom" else x)
               (Array.init 100 Fun.id))))

let test_pool_exceptions_contained () =
  (* A mid-array failure must not prevent the remaining elements (even
     those sharing its chunk) from running, and with several failures
     the one surfaced must be the lowest-index one — what the
     sequential path would have hit first. *)
  let n = 100 in
  let attempted = Array.init n (fun _ -> Atomic.make false) in
  Width.with_pool (fun p ->
      Alcotest.check_raises "lowest-index failure wins" (Failure "at 37")
        (fun () ->
          ignore
            (Pool.map p
               (fun x ->
                 Atomic.set attempted.(x) true;
                 if x = 37 || x = 38 || x = 71 then
                   failwith (Printf.sprintf "at %d" x)
                 else x)
               (Array.init n Fun.id))));
  Array.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Printf.sprintf "element %d attempted despite failures" i)
        true (Atomic.get a))
    attempted

let test_pool_resolve_jobs () =
  Alcotest.(check int) "positive is itself" 3 (Pool.resolve_jobs 3);
  Alcotest.(check bool) "0 means recommended (>= 1)" true
    (Pool.resolve_jobs 0 >= 1);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Pool.resolve_jobs: jobs must be >= 0") (fun () ->
      ignore (Pool.resolve_jobs (-1)))

let test_pool_with_jobs_policy () =
  Pool.with_jobs ~jobs:1 (fun p ->
      Alcotest.(check bool) "jobs 1 takes the serial path" true (p = None));
  Pool.with_jobs ~jobs:Width.jobs (fun p ->
      match p with
      | None -> Alcotest.fail "expected a pool"
      | Some p ->
          Alcotest.(check int) "pool width" Width.jobs (Pool.domains p))

(* A map shorter than a spawn never leaves the calling domain: about
   100 elements of 2 us each finish well inside the pool's 1 ms spawn
   threshold.  (This test runs before any map in this binary spawns, so
   the threshold is still that starting constant.) *)
let test_pool_short_map_stays_on_caller () =
  let spin_ns = 2_000L in
  let spin () =
    let t0 = Trace.now_ns () in
    while Int64.sub (Trace.now_ns ()) t0 < spin_ns do
      ()
    done
  in
  let caller = Domain.self () in
  let ran_on =
    Pool.with_pool ~domains:4 (fun p ->
        Pool.map p
          (fun _ ->
            spin ();
            Domain.self ())
          (Array.make 100 ()))
  in
  Array.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "element %d ran on the caller" i)
        true (d = caller))
    ran_on

(* The caller is slow (1 ms per element) until some element has run on
   another domain: the map outlasts the spawn threshold with chunks
   left, so the helpers spawn and take chunks from the shared counter
   while the caller is still busy.  The result must equal the serial
   map regardless of who ran what. *)
let test_pool_skewed_workload_leaves_caller () =
  let n = 400 in
  let caller = Domain.self () in
  let off_caller = Atomic.make false in
  let work x =
    if Domain.self () <> caller then Atomic.set off_caller true
    else if not (Atomic.get off_caller) then Unix.sleepf 0.001;
    (x * x) - 3
  in
  let got = Width.with_pool (fun p -> Pool.map p work (Array.init n Fun.id)) in
  Alcotest.(check (array int)) "skewed workload result"
    (Array.init n (fun x -> (x * x) - 3))
    got;
  Alcotest.(check bool) "some element ran off the calling domain" true
    (Atomic.get off_caller)

(* A width past the runtime's domain limit (128 in OCaml 5.1): the
   elements sleep, so the helpers stay alive until a spawn fails.  The
   map stops spawning there and finishes on the domains it has. *)
let test_pool_oversized_width () =
  let n = 1000 in
  let got =
    Pool.with_pool ~domains:200 (fun p ->
        Pool.map p
          (fun x ->
            Unix.sleepf 0.02;
            x + 1)
          (Array.init n Fun.id))
  in
  Alcotest.(check (array int)) "map = Array.map" (Array.init n succ) got

(* --- streaming enumeration ------------------------------------------------ *)

let triple (pr : Engine.pair) = (pr.Engine.src, pr.Engine.dst, pr.Engine.self)

let test_pairs_seq_matches_pairs () =
  List.iter
    (fun prog ->
      let accs, _env = Access.of_program prog in
      let legacy = List.map triple (List.of_seq (Engine.pairs_seq accs)) in
      let streamed = List.of_seq (Seq.map triple (Engine.pairs_seq accs)) in
      let iterated =
        let out = ref [] in
        Engine.iter_pairs (fun pr -> out := triple pr :: !out) accs;
        List.rev !out
      in
      Alcotest.(check bool)
        "pairs_seq enumerates the legacy triples" true
        (legacy = streamed);
      Alcotest.(check bool)
        "iter_pairs enumerates the legacy triples" true
        (legacy = iterated);
      Alcotest.(check bool)
        "self pairs present" true
        (List.exists (fun (_, _, self) -> self) legacy
        || List.for_all (fun (_, _, self) -> not self) legacy))
    [ sphot_prog; prepare (many_distances_src 4) ]

(* --- parallel determinism ------------------------------------------------- *)

let render_deps deps =
  List.map (fun d -> Format.asprintf "%a" Analyze.pp_dep d) deps

let test_deps_deterministic_random_programs () =
  for seed = 0 to 14 do
    let prog = Progen.random (Prng.create (Int64.of_int seed)) in
    let serial = render_deps (Analyze.deps_of_program prog) in
    let par =
      Width.with_pool (fun pool ->
          render_deps (Analyze.deps_of_program ~pool prog))
    in
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: jobs %d = jobs 1" seed Width.jobs)
      serial par
  done

(* The whole corpus: the analyzer's row list (what `vic analyze`
   prints) must be identical at any job count, program by program. *)
let test_deps_deterministic_corpus_and_family () =
  let corpus = List.map (fun s -> Pipeline.prepare_program (Corpus.generate s)) Corpus.riceps in
  List.iter
    (fun prog ->
      let serial = render_deps (Analyze.deps_of_program prog) in
      let par =
        Width.with_pool (fun pool ->
            render_deps (Analyze.deps_of_program ~pool prog))
      in
      Alcotest.(check (list string)) "parallel = serial" serial par;
      (* Same check through the accesses entry point. *)
      let pooled =
        Width.with_pool (fun pool ->
            let accs, env = Access.of_program prog in
            render_deps (Analyze.deps_of_accesses ~pool ~env accs))
      in
      Alcotest.(check (list string)) "accesses entry = serial" serial pooled)
    (corpus
    @ [
        prepare (Workload.family_program ~depth:3 ~extent:6);
        prepare (many_distances_src 5);
      ])

let test_depgraph_deterministic () =
  List.iter
    (fun prog ->
      let serial = (Depgraph.build prog).Depgraph.edges in
      let par =
        Width.with_pool (fun pool -> (Depgraph.build ~pool prog).Depgraph.edges)
      in
      Alcotest.(check bool) "edge lists identical" true (serial = par))
    [ sphot_prog; prepare (many_distances_src 5) ]

(* The full corpus at the acceptance width: the rendered rows (the
   exact bytes `vic analyze` prints) at jobs=8 must equal the serial
   run, program by program. *)
let test_deps_jobs8_byte_identical_corpus () =
  List.iter
    (fun spec ->
      let prog = Pipeline.prepare_program (Corpus.generate spec) in
      let serial = render_deps (Analyze.deps_of_program prog) in
      let par8 =
        Pool.with_pool ~domains:8 (fun pool ->
            render_deps (Analyze.deps_of_program ~pool prog))
      in
      Alcotest.(check (list string))
        (spec.Corpus.name ^ ": jobs 8 = jobs 1 (rendered bytes)")
        serial par8)
    Corpus.riceps

let test_stats_consistent_after_parallel_run () =
  Engine.reset_metrics ();
  Width.with_pool (fun pool ->
      List.iter
        (fun prog -> ignore (Analyze.deps_of_program ~pool prog))
        [ sphot_prog; prepare (many_distances_src 6) ]);
  let st = Stats.global in
  Alcotest.(check bool) "queries issued" true (Stats.queries st > 0);
  Alcotest.(check bool)
    "queries = hits + misses + uncacheable" true (Stats.consistent st)

(* --- metrics scope and the allocation-free hit path ----------------------- *)

let test_reset_metrics_clears_everything () =
  let prog = prepare (many_distances_src 6) in
  let run () =
    Width.with_pool (fun pool -> ignore (Analyze.deps_of_program ~pool prog))
  in
  Engine.reset_metrics ();
  run ();
  let q1 = Stats.queries Stats.global in
  Alcotest.(check bool) "first run issued queries" true (q1 > 0);
  Engine.reset_metrics ();
  Alcotest.(check int) "queries reset" 0 (Stats.queries Stats.global);
  Alcotest.(check int) "alloc counter reset" 0
    (Stats.alloc_words Stats.global);
  run ();
  Alcotest.(check int)
    "back-to-back runs do not accumulate" q1
    (Stats.queries Stats.global)

let test_hit_path_allocation_free () =
  let ps, env = problems_of_prog (prepare (many_distances_src 6)) in
  let cache = Query.create_cache () in
  (* Warm pass: populates the cache and the per-domain key buffers. *)
  let warm = Stats.create () in
  List.iter (fun p -> ignore (Engine.query ~stats:warm ~cache ~env p)) ps;
  Alcotest.(check int) "warm pass is all cacheable" 0
    (Stats.cache_uncacheable warm);
  let stats = Stats.create () in
  let reps = 50 in
  for _ = 1 to reps do
    List.iter (fun p -> ignore (Engine.query ~stats ~cache ~env p)) ps
  done;
  Alcotest.(check int) "warmed passes are all hits"
    (reps * List.length ps)
    (Stats.cache_hits stats);
  let engine = Stats.samples stats in
  let per_hit =
    float_of_int (Counters.get engine "vic_engine_hit_alloc_minor_words_total")
    /. float_of_int (Counters.hits engine)
  in
  Alcotest.(check bool)
    (Printf.sprintf "allocations per hit ~0 (got %.2f minor words)" per_hit)
    true (per_hit <= 8.0)

(* --- sharded cache under concurrency -------------------------------------- *)

let test_cache_hammering_from_domains () =
  let ps, env = problems_of_prog (prepare (many_distances_src 6)) in
  Alcotest.(check bool) "workload nonempty" true (ps <> []);
  (* Serial reference verdicts on a private cache. *)
  let reference =
    let stats = Stats.create () in
    let cache = Query.create_cache () in
    List.map (fun p -> (Engine.query ~stats ~cache ~env p).Strategy.verdict) ps
  in
  let stats = Stats.create () in
  let cache = Query.create_cache () in
  let reps = 50 in
  let hammer () =
    let first = ref [] in
    for rep = 1 to reps do
      let vs =
        List.map
          (fun p -> (Engine.query ~stats ~cache ~env p).Strategy.verdict)
          ps
      in
      if rep = 1 then first := vs
    done;
    !first
  in
  let domains = List.init Width.jobs (fun _ -> Domain.spawn hammer) in
  let per_domain = List.map Domain.join domains in
  List.iteri
    (fun i vs ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d verdicts match serial reference" i)
        true
        (List.for_all2 Verdict.equal reference vs))
    per_domain;
  Alcotest.(check int)
    "every query counted exactly once"
    (Width.jobs * reps * List.length ps)
    (Stats.queries stats);
  Alcotest.(check int) "all numeric, none uncacheable" 0
    (Stats.cache_uncacheable stats);
  Alcotest.(check bool) "hits + misses = queries" true (Stats.consistent stats);
  (* The cache must afterwards replay exactly the serial verdicts. *)
  let replay =
    List.map
      (fun p ->
        (Engine.query ~stats:(Stats.create ()) ~cache ~env p).Strategy.verdict)
      ps
  in
  Alcotest.(check bool)
    "cached entries correct" true
    (List.for_all2 Verdict.equal reference replay)

let test_capacity_one_per_shard_flushes () =
  let ps, env = problems_of_prog (prepare (many_distances_src 20)) in
  (* Dedup to distinct canonical keys so each insert is a fresh entry. *)
  let seen = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun p ->
        match Query.key_of ~cascade:"delin" p with
        | None -> false
        | Some k ->
            if Hashtbl.mem seen k then false
            else (
              Hashtbl.add seen k ();
              true))
      ps
  in
  let n = List.length distinct in
  Alcotest.(check bool) "more distinct keys than shards" true (n > 8);
  let stats = Stats.create () in
  let cache = Query.create_cache ~capacity:8 ~shards:8 () in
  Alcotest.(check int) "per-shard capacity is 1" 1 (Query.shard_capacity cache);
  List.iter (fun p -> ignore (Engine.query ~stats ~cache ~env p)) distinct;
  let sizes = Array.fold_left ( + ) 0 (Query.shard_sizes cache) in
  let flushes = Array.fold_left ( + ) 0 (Query.shard_flushes cache) in
  (* Capacity-1 shards: every overflow evicts exactly one entry, so
     survivors + flushes account for every distinct insertion. *)
  Alcotest.(check int) "survivors + flushes = distinct inserts" n
    (sizes + flushes);
  Alcotest.(check int) "stats agree with per-shard counters" flushes
    (Counters.get (Stats.samples stats) "vic_engine_cache_flushes_total");
  Array.iter
    (fun s -> Alcotest.(check bool) "shard bounded" true (s <= 1))
    (Query.shard_sizes cache);
  Alcotest.(check bool) "at least one shard overflowed" true (flushes > 0)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map = Array.map" `Quick
            test_pool_map_matches_array_map;
          Alcotest.test_case "short map stays on the caller" `Quick
            test_pool_short_map_stays_on_caller;
          Alcotest.test_case "empty input" `Quick test_pool_empty_input;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "exceptions contained per element" `Quick
            test_pool_exceptions_contained;
          Alcotest.test_case "resolve_jobs" `Quick test_pool_resolve_jobs;
          Alcotest.test_case "with_jobs policy" `Quick
            test_pool_with_jobs_policy;
          Alcotest.test_case "skewed workload leaves the caller" `Quick
            test_pool_skewed_workload_leaves_caller;
          Alcotest.test_case "oversized width" `Quick
            test_pool_oversized_width;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "pairs_seq = legacy pairs" `Quick
            test_pairs_seq_matches_pairs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "random programs, jobs N = jobs 1" `Quick
            test_deps_deterministic_random_programs;
          Alcotest.test_case "corpus + paper family" `Quick
            test_deps_deterministic_corpus_and_family;
          Alcotest.test_case "depgraph edges" `Quick
            test_depgraph_deterministic;
          Alcotest.test_case "stats consistent after parallel run" `Quick
            test_stats_consistent_after_parallel_run;
          Alcotest.test_case "corpus at jobs 8, byte-identical" `Quick
            test_deps_jobs8_byte_identical_corpus;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "reset_metrics clears pool telemetry" `Quick
            test_reset_metrics_clears_everything;
          Alcotest.test_case "cache-hit path is allocation-free" `Quick
            (without_chaos test_hit_path_allocation_free);
        ] );
      ( "sharded-cache",
        [
          Alcotest.test_case "hammering from domains" `Quick
            (without_chaos test_cache_hammering_from_domains);
          Alcotest.test_case "capacity-1 shards flush correctly" `Quick
            (without_chaos test_capacity_one_per_shard_flushes);
        ] );
    ]
