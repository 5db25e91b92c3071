(* Tests for the unified dependence-query engine (lib/engine): memo
   cache behavior, preset cascades vs the historical analyzer modes,
   verdict provenance, and the analyzer/depgraph consistency regression
   (the two consumers share one pair-enumeration path and must agree on
   which statement pairs depend on each other). *)

module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Problem = Dlz_deptest.Problem
module Access = Dlz_ir.Access
module Assume = Dlz_symbolic.Assume
module F77 = Dlz_frontend.F77_parser
module Pipeline = Dlz_passes.Pipeline
module Fragments = Dlz_driver.Fragments
module Corpus = Dlz_corpus.Corpus
module Engine = Dlz_engine.Engine
module Analyze = Dlz_engine.Analyze
module Cascade = Dlz_engine.Cascade
module Registry = Dlz_engine.Registry
module Strategy = Dlz_engine.Strategy
module Query = Dlz_engine.Query
module Stats = Dlz_engine.Stats
module Depgraph = Dlz_vec.Depgraph

let verdict = Alcotest.testable Verdict.pp Verdict.equal
let prepare src = Pipeline.prepare_program (F77.parse src)

let accesses src =
  let prog = prepare src in
  Access.of_program prog

(* A tiny numeric nest: one write, two reads on A, fully constant
   bounds, so every query is cacheable. *)
let numeric_src =
  {|      DIMENSION A(200), B(200)
      DO I = 0, 99
        A(I+1) = A(I) + B(I)
      ENDDO
|}

(* Same dependence equation planted on two different arrays: the
   canonical forms coincide, so the second pair must hit the cache. *)
let twin_src =
  {|      DIMENSION A(200), B(200)
      DO I = 0, 99
        A(I+1) = A(I)
        B(I+1) = B(I)
      ENDDO
|}

let problems_of src =
  let accs, env = accesses src in
  ( List.of_seq
      (Seq.map (fun (pr : Engine.pair) -> pr.Engine.problem)
         (Engine.pairs_seq accs)),
    env )

(* --- memo cache ----------------------------------------------------------- *)

let test_cache_hit_miss () =
  let ps, env = problems_of numeric_src in
  let p = List.hd ps in
  let stats = Stats.create () in
  let cache = Query.create_cache () in
  let r1 = Engine.query ~stats ~cache ~env p in
  let r2 = Engine.query ~stats ~cache ~env p in
  Alcotest.(check int) "two queries" 2 (Stats.queries stats);
  Alcotest.(check int) "one miss" 1 (Stats.cache_misses stats);
  Alcotest.(check int) "one hit" 1 (Stats.cache_hits stats);
  Alcotest.(check int) "nothing uncacheable" 0 (Stats.cache_uncacheable stats);
  Alcotest.check verdict "same verdict" r1.Strategy.verdict
    r2.Strategy.verdict;
  Alcotest.(check string)
    "same provenance" r1.Strategy.decided_by r2.Strategy.decided_by;
  Alcotest.(check bool)
    "same dirvecs" true
    (List.for_all2 Dirvec.equal r1.Strategy.dirvecs r2.Strategy.dirvecs)

let test_cache_canonical_sharing () =
  (* A and B pairs have identical equations after canonicalization:
     first solve misses, everything after hits. *)
  let ps, env = problems_of twin_src in
  let stats = Stats.create () in
  let cache = Query.create_cache () in
  List.iter (fun p -> ignore (Engine.query ~stats ~cache ~env p)) ps;
  Alcotest.(check bool)
    "several pairs" true
    (List.length ps >= 4);
  Alcotest.(check int)
    "all pairs after the first solve of each shape hit" 2
    (Stats.cache_misses stats);
  Alcotest.(check int)
    "hits cover the rest"
    (List.length ps - 2)
    (Stats.cache_hits stats)

let test_cache_uncacheable_symbolic () =
  let ps, env = problems_of Fragments.symbolic_program in
  let p = List.hd ps in
  let stats = Stats.create () in
  let cache = Query.create_cache () in
  ignore (Engine.query ~stats ~cache ~env p);
  ignore (Engine.query ~stats ~cache ~env p);
  Alcotest.(check int)
    "symbolic problems never cached" 2 (Stats.cache_uncacheable stats);
  Alcotest.(check int) "no hits" 0 (Stats.cache_hits stats);
  Alcotest.(check int) "cache stays empty" 0 (Query.size cache)

let test_cache_flush_on_capacity () =
  let ps, env = problems_of twin_src in
  (* Two problems with different canonical forms (distinct cache keys). *)
  let key p = Query.key_of ~cascade:"delin" p in
  let distinct =
    match ps with
    | p1 :: rest -> (
        match List.find_opt (fun p -> key p <> key p1) rest with
        | Some p2 -> [ p1; p2 ]
        | None -> ps)
    | [] -> []
  in
  Alcotest.(check int) "found two distinct forms" 2 (List.length distinct);
  let stats = Stats.create () in
  let cache = Query.create_cache ~capacity:1 ~shards:1 () in
  List.iter (fun p -> ignore (Engine.query ~stats ~cache ~env p)) distinct;
  Alcotest.(check bool) "flushed at least once" true
    (Counters.get (Stats.samples stats) "vic_engine_cache_flushes_total" >= 1);
  Alcotest.(check bool) "size bounded" true (Query.size cache <= 1)

let test_key_of_none_for_symbolic () =
  let ps, _env = problems_of Fragments.symbolic_program in
  Alcotest.(check bool)
    "no key for symbolic problems" true
    (Query.key_of ~cascade:"delin" (List.hd ps) = None);
  let ps, _env = problems_of numeric_src in
  Alcotest.(check bool)
    "numeric problems have keys" true
    (Query.key_of ~cascade:"delin" (List.hd ps) <> None)

(* --- presets vs modes ----------------------------------------------------- *)

(* Each mode's cascade through the memoized, global-cache path and
   running its preset cascade directly with a private stats instance and no cache
   must agree on every pair of a program: memoization and preset wiring
   change no verdicts. *)
let check_presets_on src =
  let prog = prepare src in
  let accs, env = Access.of_program prog in
  Seq.iter
    (fun (pr : Engine.pair) ->
      List.iter
        (fun (mode, cascade) ->
          let via_mode =
            Engine.query ~cascade:(Analyze.cascade_of_mode mode) ~env
              pr.Engine.problem
          in
          let direct =
            Cascade.run ~stats:(Stats.create ()) ~env cascade
              pr.Engine.problem
          in
          Alcotest.check verdict "verdicts agree" direct.Strategy.verdict
            via_mode.Strategy.verdict;
          Alcotest.(check string)
            "provenance agrees" direct.Strategy.decided_by
            via_mode.Strategy.decided_by;
          Alcotest.(check bool)
            "dirvecs agree" true
            (List.length direct.Strategy.dirvecs
             = List.length via_mode.Strategy.dirvecs
            && List.for_all2 Dirvec.equal direct.Strategy.dirvecs
                 via_mode.Strategy.dirvecs))
        [
          (Analyze.Delinearize, Cascade.delin);
          (Analyze.Classic, Cascade.classic);
          (Analyze.ExactMode, Cascade.exact);
        ])
    (Engine.pairs_seq accs)

let test_presets_match_modes_fragments () =
  Engine.reset_metrics ();
  List.iter check_presets_on
    [
      Fragments.eq1_program;
      Fragments.fig3_program;
      Fragments.ib_program;
      Fragments.mhl_program;
      Fragments.intro_serial;
      Fragments.symbolic_program;
    ]

let test_presets_match_modes_corpus () =
  Engine.reset_metrics ();
  (* Two corpus programs keep the runtime reasonable; each contains all
     three planted idioms. *)
  List.iter
    (fun name ->
      let spec = List.find (fun s -> s.Corpus.name = name) Corpus.riceps in
      let prog = Pipeline.prepare_program (Corpus.generate spec) in
      let accs, env = Access.of_program prog in
      Seq.iter
        (fun (pr : Engine.pair) ->
          let via_mode = Engine.query ~env pr.Engine.problem in
          let direct =
            Cascade.run ~stats:(Stats.create ()) ~env Cascade.delin
              pr.Engine.problem
          in
          Alcotest.check verdict "delin preset matches mode on corpus"
            direct.Strategy.verdict via_mode.Strategy.verdict)
        (Engine.pairs_seq accs))
    [ "SPHOT"; "SIMPLE" ]

let test_of_names () =
  (match Cascade.of_names [ "gcd"; "banerjee"; "delinearize" ] with
  | Ok c ->
      Alcotest.(check int) "three steps" 3 (List.length c.Cascade.steps)
  | Error e -> Alcotest.failf "expected cascade, got error %s" e);
  match Cascade.of_names [ "no-such-test" ] with
  | Ok _ -> Alcotest.fail "unknown strategy accepted"
  | Error _ -> ()

let test_registry_names () =
  let names = Registry.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [
      "delinearize"; "classic"; "exact"; "gcd"; "banerjee"; "svpc";
      "acyclic"; "residue"; "omega";
    ]

(* A filter-only cascade that proves nothing falls through to the
   conservative all-star result with "conservative" provenance. *)
let test_conservative_fallthrough () =
  let ps, env = problems_of numeric_src in
  (* A(I+1) = A(I): a real dependence no filter can refute. *)
  let dependent =
    List.find
      (fun p ->
        Cascade.run ~stats:(Stats.create ()) ~env Cascade.delin p
        |> fun r -> r.Strategy.verdict = Verdict.Dependent)
      ps
  in
  let c =
    match Cascade.of_names [ "gcd"; "banerjee" ] with
    | Ok c -> c
    | Error e -> Alcotest.failf "cascade: %s" e
  in
  let stats = Stats.create () in
  let r = Cascade.run ~stats ~env c dependent in
  Alcotest.check verdict "conservatively dependent" Verdict.Dependent
    r.Strategy.verdict;
  Alcotest.(check string) "provenance" "conservative" r.Strategy.decided_by;
  Alcotest.(check bool)
    "filters were attempted" true
    (List.for_all
       (fun (_, attempts) -> attempts = 1)
       (Counters.cells (Stats.samples stats)
          "vic_engine_strategy_attempts_total"))

(* --- provenance ----------------------------------------------------------- *)

let test_provenance_populated () =
  let known = "conservative" :: Registry.names () in
  List.iter
    (fun src ->
      let deps = Analyze.deps_of_program (prepare src) in
      List.iter
        (fun (d : Analyze.dep) ->
          Alcotest.(check bool)
            ("provenance name known: " ^ d.Analyze.via)
            true
            (List.mem d.Analyze.via known))
        deps)
    [ Fragments.eq1_program; Fragments.ib_program; Fragments.mhl_program ];
  (* Exact mode on a numeric program: the exact solver itself decides. *)
  let deps =
    Analyze.deps_of_program
      ~cascade:(Analyze.cascade_of_mode Analyze.ExactMode)
      (prepare numeric_src)
  in
  Alcotest.(check bool) "numeric nest has deps" true (deps <> []);
  List.iter
    (fun (d : Analyze.dep) ->
      Alcotest.(check string) "exact decided" "exact" d.Analyze.via)
    deps

let test_stats_reporting () =
  Engine.reset_metrics ();
  ignore (Analyze.deps_of_program (prepare numeric_src));
  ignore (Analyze.deps_of_program (prepare numeric_src));
  let st = Stats.global in
  Alcotest.(check bool) "queries counted" true (Stats.queries st > 0);
  Alcotest.(check bool) "repeat run hits" true (Stats.cache_hits st > 0);
  let engine = Stats.samples st in
  let hits = Counters.hits engine in
  let looked_up =
    hits + Counters.get engine "vic_engine_cache_misses_total"
  in
  let hit_ratio =
    if looked_up = 0 then 0. else float_of_int hits /. float_of_int looked_up
  in
  Alcotest.(check bool)
    "hit ratio in (0,1]" true
    (hit_ratio > 0. && hit_ratio <= 1.);
  Alcotest.(check bool)
    "delinearize counted" true
    (List.exists
       (fun (labels, attempts) ->
         labels = [ ("strategy", "delinearize") ] && attempts > 0)
       (Counters.cells engine "vic_engine_strategy_attempts_total"));
  (* The --stats-json line: the Snap rendering of the registry, whose
     "engine" collector reads [Stats.global]. *)
  let line =
    Dlz_obs.Jsonx.to_string
      (Dlz_obs.Snap.to_json (Dlz_obs.Registry.collect ()))
  in
  let metrics =
    match Dlz_obs.Jsonx.parse line with
    | Ok j ->
        Option.get (Option.bind (Dlz_obs.Jsonx.member "metrics" j)
                      Dlz_obs.Jsonx.to_list)
    | Error m -> Alcotest.fail ("snap line does not parse: " ^ m)
  in
  let value name labels =
    List.find_map
      (fun m ->
        let open Dlz_obs.Jsonx in
        if member "name" m = Some (Str name)
           && member "labels" m = Some (Obj labels)
        then Option.bind (member "value" m) to_int
        else None)
      metrics
  in
  Alcotest.(check (option int))
    "snap queries = Stats.queries" (Some (Stats.queries st))
    (value "vic_engine_queries_total" []);
  Alcotest.(check bool)
    "snap counts delinearize attempts" true
    (match
       value "vic_engine_strategy_attempts_total"
         [ ("strategy", Dlz_obs.Jsonx.Str "delinearize") ]
     with
    | Some n -> n > 0
    | None -> false)

(* --- pair enumeration and orientation ------------------------------------- *)

let test_pairs_write_first () =
  List.iter
    (fun src ->
      let accs, _env = accesses src in
      Seq.iter
        (fun (pr : Engine.pair) ->
          let has_write =
            pr.Engine.src.Access.rw = `Write
            || pr.Engine.dst.Access.rw = `Write
          in
          Alcotest.(check bool) "every pair involves a write" true has_write;
          Alcotest.(check bool)
            "source is the writing reference" true
            (pr.Engine.src.Access.rw = `Write);
          Alcotest.(check string)
            "same array" pr.Engine.src.Access.array
            pr.Engine.dst.Access.array;
          Alcotest.(check bool)
            "self flag matches ids" pr.Engine.self
            (pr.Engine.src.Access.acc_id = pr.Engine.dst.Access.acc_id))
        (Engine.pairs_seq accs))
    [ numeric_src; twin_src; Fragments.ib_program; Fragments.fig3_program ]

(* --- analyzer/depgraph consistency (the orientation regression) ----------- *)

(* Both views read the same Engine.query_all answers; the depgraph
   additionally reorients lexicographically-backward vectors and — by
   design — drops within-statement loop-independent dependences (an
   all-[=] vector on a single statement does not constrain loop
   rearrangement).  Modulo that documented exclusion, the set of
   unordered statement pairs connected by a dependence must be
   identical. *)
let unordered_pairs_of_deps deps =
  List.sort_uniq compare
    (List.filter_map
       (fun (d : Analyze.dep) ->
         let a = d.Analyze.src.Access.stmt_id
         and b = d.Analyze.dst.Access.stmt_id in
         if a = b && Array.for_all (( = ) Dirvec.Eq) d.Analyze.dirvec then
           None
         else Some (min a b, max a b))
       deps)

let unordered_pairs_of_graph (g : Depgraph.t) =
  List.sort_uniq compare
    (List.map
       (fun (e : Depgraph.edge) ->
         (min e.Depgraph.e_src e.Depgraph.e_dst,
          max e.Depgraph.e_src e.Depgraph.e_dst))
       g.Depgraph.edges)

let test_analyze_depgraph_consistent () =
  List.iter
    (fun (name, src) ->
      let prog = prepare src in
      List.iter
        (fun mode ->
          let cascade = Analyze.cascade_of_mode mode in
          let accs, env = Access.of_program prog in
          let results = Engine.query_all ~cascade ~env accs in
          let deps = Analyze.deps_of_results results in
          let g = Depgraph.of_results accs results in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s: same dependent statement pairs" name)
            (unordered_pairs_of_deps deps)
            (unordered_pairs_of_graph g))
        [ Analyze.Delinearize; Analyze.Classic ])
    [
      ("eq1", Fragments.eq1_program);
      ("fig3", Fragments.fig3_program);
      ("ib", Fragments.ib_program);
      ("mhl", Fragments.mhl_program);
      ("intro-serial", Fragments.intro_serial);
      ("intro-parallel", Fragments.intro_parallel);
      ("symbolic", Fragments.symbolic_program);
      ("numeric", numeric_src);
      ("twin", twin_src);
    ]

(* The invariant the memo cache rests on: problems with equal cache
   keys are interchangeable.  Eqgen and polybench problems are grouped
   by key, and within each group a cold solve of every problem must
   give the first one's verdict, direction and distance vectors, and
   deciding strategy.  Injection is off: a chaos strike is keyed on the
   whole problem, not on its key. *)
let test_equal_keys_equal_answers () =
  let module Eqgen = Dlz_oracle.Eqgen in
  let module Chaos = Dlz_engine.Chaos in
  let module Poly = Dlz_symbolic.Poly in
  let saved = Chaos.current () in
  Chaos.set_current None;
  Fun.protect ~finally:(fun () -> Chaos.set_current saved) @@ fun () ->
  let groups = Hashtbl.create 1024 in
  List.iter
    (fun (c : Eqgen.case) ->
      match Query.key_of ~cascade:Cascade.delin.Cascade.name c.problem with
      | Some k ->
          Hashtbl.replace groups k
            (c :: Option.value ~default:[] (Hashtbl.find_opt groups k))
      | None -> ())
    (Eqgen.polybench () @ Eqgen.all ~seed:3L ~count:2000);
  let cold (c : Eqgen.case) =
    let r =
      Cascade.run ~stats:(Stats.create ()) ~env:c.env Cascade.delin c.problem
    in
    String.concat " "
      (Verdict.to_string r.Strategy.verdict
      :: r.Strategy.decided_by
      :: List.map Dirvec.to_string r.Strategy.dirvecs
      @ List.map
          (fun (l, d) -> Printf.sprintf "%d:%s" l (Poly.to_string d))
          r.Strategy.distances)
  in
  let shared = ref 0 and differ = ref [] in
  Hashtbl.iter
    (fun _ cases ->
      match List.rev cases with
      | [] -> ()
      | first :: rest ->
          let want = cold first in
          List.iter
            (fun (c : Eqgen.case) ->
              incr shared;
              let got = cold c in
              if got <> want then
                differ :=
                  Printf.sprintf "%s: %s, %s: %s" first.id want c.id got
                  :: !differ)
            rest)
    groups;
  Alcotest.(check bool) "some problems share a key" true (!shared > 0);
  Alcotest.(check (list string)) "same-key problems that answer differently"
    [] !differ

let () =
  Alcotest.run "engine"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss on repeat query" `Quick
            test_cache_hit_miss;
          Alcotest.test_case "canonical forms shared across arrays" `Quick
            test_cache_canonical_sharing;
          Alcotest.test_case "symbolic problems uncacheable" `Quick
            test_cache_uncacheable_symbolic;
          Alcotest.test_case "bounded capacity flush" `Quick
            test_cache_flush_on_capacity;
          Alcotest.test_case "key_of symbolic vs numeric" `Quick
            test_key_of_none_for_symbolic;
          Alcotest.test_case "equal keys, equal cold answers" `Quick
            test_equal_keys_equal_answers;
        ] );
      ( "presets",
        [
          Alcotest.test_case "presets match modes on fragments" `Quick
            test_presets_match_modes_fragments;
          Alcotest.test_case "presets match modes on corpus" `Slow
            test_presets_match_modes_corpus;
          Alcotest.test_case "of_names resolves and rejects" `Quick
            test_of_names;
          Alcotest.test_case "built-ins registered" `Quick test_registry_names;
          Alcotest.test_case "filter-only cascade falls through" `Quick
            test_conservative_fallthrough;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "deps carry deciding strategy" `Quick
            test_provenance_populated;
          Alcotest.test_case "global stats populated" `Quick
            test_stats_reporting;
        ] );
      ( "pairs",
        [
          Alcotest.test_case "write-first orientation" `Quick
            test_pairs_write_first;
          Alcotest.test_case "analyzer and depgraph agree" `Quick
            test_analyze_depgraph_consistent;
        ] );
    ]
