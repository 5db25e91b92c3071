(* Containment invariants of the fault-injected engine (lib/engine):
   with the chaos harness striking at strategy boundaries, analysis
   must still terminate, verdicts may only degrade toward "dependent",
   parallel output must equal serial output, and the stats degradation
   counters must account for every injected fault exactly.  Also the
   non-injected fault paths: Intx.Overflow from near-max_int
   coefficients and Budget exhaustion from tiny fuel.

   This binary is meaningful both ways: under `dune runtest` it
   configures chaos explicitly per test (the environment is clean);
   under the @matrix-ci alias DLZ_CHAOS is set globally, which the
   explicit configurations simply override. *)

module Budget = Dlz_base.Budget
module Pool = Dlz_base.Pool
module Verdict = Dlz_deptest.Verdict
module Access = Dlz_ir.Access
module F77 = Dlz_frontend.F77_parser
module Pipeline = Dlz_passes.Pipeline
module Fragments = Dlz_driver.Fragments
module Workload = Dlz_driver.Workload
module Progen = Dlz_driver.Progen
module Corpus = Dlz_corpus.Corpus
module Prng = Dlz_base.Prng
module Engine = Dlz_engine.Engine
module Strategy = Dlz_engine.Strategy
module Analyze = Dlz_engine.Analyze
module Cascade = Dlz_engine.Cascade
module Chaos = Dlz_engine.Chaos
module Query = Dlz_engine.Query
module Stats = Dlz_engine.Stats

let prepare src = Pipeline.prepare_program (F77.parse src)

let with_chaos chaos f =
  let saved = Chaos.current () in
  Chaos.set_current chaos;
  Fun.protect ~finally:(fun () -> Chaos.set_current saved) f

(* A mixed workload with plenty of pairs: paper fragments plus random
   programs.  Every test re-derives problems from here. *)
let workload_programs () =
  List.map prepare
    [
      Fragments.mhl_program;
      Fragments.fig3_program;
      Fragments.equivalence_2d;
      Fragments.symbolic_program;
      Workload.family_program ~depth:3 ~extent:6;
    ]
  @ List.init 8 (fun seed -> Progen.random (Prng.create (Int64.of_int seed)))

let problems_of_prog prog =
  let accs, env = Access.of_program prog in
  ( List.of_seq
      (Seq.map (fun (pr : Engine.pair) -> pr.Engine.problem)
         (Engine.pairs_seq accs)),
    env )

(* --- configuration parsing ------------------------------------------------ *)

let test_of_string_roundtrip () =
  (match Chaos.of_string "42:0.1" with
  | Error e -> Alcotest.failf "42:0.1 rejected: %s" e
  | Ok c ->
      Alcotest.(check string) "round-trips" "42:0.1" (Chaos.to_string c);
      Alcotest.(check int64) "seed" 42L (Chaos.seed c);
      Alcotest.(check (float 1e-9)) "rate" 0.1 (Chaos.rate c));
  match Chaos.of_string "-7:1" with
  | Error e -> Alcotest.failf "-7:1 rejected: %s" e
  | Ok c -> Alcotest.(check int64) "negative seed" (-7L) (Chaos.seed c)

let test_of_string_rejects_garbage () =
  List.iter
    (fun s ->
      match Chaos.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" s)
    [ ""; "42"; ":0.1"; "x:0.1"; "42:"; "42:x"; "42:0.1:3" ]

let test_rate_clamped () =
  Alcotest.(check (float 1e-9)) "above 1" 1.0 (Chaos.rate (Chaos.make ~seed:1L ~rate:7.0));
  Alcotest.(check (float 1e-9)) "below 0" 0.0 (Chaos.rate (Chaos.make ~seed:1L ~rate:(-1.0)))

(* --- overflow containment ------------------------------------------------- *)

(* Overflow provenance is asserted exactly, so injection (which would
   pre-empt the strategy with a [chaos:*] reason) is switched off. *)
let test_overflow_contained_every_mode () =
  with_chaos None @@ fun () ->
  let prog = prepare Fragments.overflow_stress_program in
  List.iter
    (fun mode ->
      let cascade = Analyze.cascade_of_mode mode in
      let serial = Analyze.deps_of_program ~cascade prog in
      let par =
        Width.with_pool (fun pool -> Analyze.deps_of_program ~cascade ~pool prog)
      in
      Alcotest.(check bool) "serial = parallel" true (serial = par);
      (* The loop-carried self dependence survives in every mode: a
         faulted strategy degrades to dependent, never drops the row. *)
      Alcotest.(check bool)
        "self output dependence reported" true
        (List.exists
           (fun (d : Analyze.dep) -> d.Analyze.src.Access.stmt_id = d.Analyze.dst.Access.stmt_id)
           serial))
    [ Analyze.Delinearize; Analyze.Classic; Analyze.ExactMode ];
  (* Classic runs GCD+Banerjee on the unbroken 2^40-coefficient
     equations, so its rows must carry overflow provenance. *)
  let classic =
    Analyze.deps_of_program
      ~cascade:(Analyze.cascade_of_mode Analyze.Classic)
      prog
  in
  Alcotest.(check bool)
    "classic rows degraded by overflow" true
    (List.for_all
       (fun (d : Analyze.dep) ->
         List.exists
           (fun (_, reason) ->
             String.length reason >= 9 && String.sub reason 0 9 = "overflow:")
           d.Analyze.degraded)
       classic)

(* [stats]' contained faults: one cell per (strategy, reason). *)
let degradation_cells stats =
  Counters.cells (Stats.samples stats) "vic_engine_degradations_total"

let test_overflow_counted_in_stats () =
  with_chaos None @@ fun () ->
  let prog = prepare Fragments.overflow_stress_program in
  let accs, env = Access.of_program prog in
  let stats = Stats.create () in
  let cache = Query.create_cache () in
  ignore
    (Engine.query_all ~cascade:Cascade.classic ~stats ~cache ~env accs);
  Alcotest.(check bool) "degradations recorded" true (Stats.degradations stats > 0);
  List.iter
    (fun (labels, _) ->
      Alcotest.(check string) "reason is overflow:mul" "overflow:mul"
        (List.assoc "reason" labels))
    (degradation_cells stats)

(* --- budget containment --------------------------------------------------- *)

let test_tiny_fuel_terminates_conservatively () =
  List.iter
    (fun prog ->
      let budget = Budget.create ~fuel:5 () in
      let deps = Analyze.deps_of_program ~budget prog in
      (* Clean rows on the same program, for comparison. *)
      let clean = Analyze.deps_of_program prog in
      (* Terminated (we are here), and no dependence disappeared: a
         starved strategy may only add conservative rows, never prove
         independence. *)
      List.iter
        (fun (c : Analyze.dep) ->
          Alcotest.(check bool)
            "every clean dependence survives starvation" true
            (List.exists
               (fun (d : Analyze.dep) ->
                 d.Analyze.src.Access.stmt_id = c.Analyze.src.Access.stmt_id
                 && d.Analyze.dst.Access.stmt_id = c.Analyze.dst.Access.stmt_id)
               deps))
        clean)
    (workload_programs ())

let test_exhausted_budget_degrades_without_running () =
  let prog = prepare Fragments.mhl_program in
  let ps, env = problems_of_prog prog in
  let budget = Budget.create ~fuel:0 () in
  let stats = Stats.create () in
  List.iter
    (fun p ->
      let r =
        with_chaos None (fun () ->
            Cascade.run ~stats ~budget ~env Cascade.delin p)
      in
      Alcotest.(check bool)
        "verdict conservative" true
        (r.Strategy.verdict <> Verdict.Independent);
      Alcotest.(check bool)
        "budget provenance attached" true
        (List.exists (fun (_, reason) -> reason = "budget:fuel")
           r.Strategy.degraded))
    ps;
  Alcotest.(check bool)
    "short-circuit: one degradation per strategy per query" true
    (Stats.degradations stats <= List.length ps * List.length Cascade.delin.Cascade.steps)

(* --- chaos: termination and conservativeness ------------------------------ *)

let chaos_cfg seed = Chaos.make ~seed ~rate:0.3

let test_chaos_verdicts_only_degrade () =
  List.iter
    (fun prog ->
      let ps, env = problems_of_prog prog in
      let clean_cache = Query.create_cache () in
      let chaos_cache = Query.create_cache () in
      let stats = Stats.create () in
      let chaos = chaos_cfg 99L in
      List.iter
        (fun p ->
          let clean =
            with_chaos None (fun () ->
                Engine.query ~stats ~cache:clean_cache ~env p)
          in
          let chaotic =
            Engine.query ~stats ~cache:chaos_cache ~chaos ~env p
          in
          (* Independence under injection must be backed by a clean
             proof: faults only ever move verdicts toward dependent. *)
          if chaotic.Strategy.verdict = Verdict.Independent then
            Alcotest.(check bool)
              "chaos Independent implies clean Independent" true
              (clean.Strategy.verdict = Verdict.Independent))
        ps)
    (workload_programs ())

let test_chaos_parallel_equals_serial () =
  List.iter
    (fun seed ->
      let run jobs =
        with_chaos
          (Some (chaos_cfg seed))
          (fun () ->
            Engine.reset_metrics ();
            Pool.with_jobs ~jobs (fun pool ->
                List.concat_map
                  (fun prog -> Analyze.deps_of_program ?pool prog)
                  (workload_programs ())))
      in
      let serial = run 1 in
      let par = run Width.jobs in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: jobs %d = jobs 1" seed Width.jobs)
        true (serial = par))
    [ 7L; 1234L ]

(* The fault boundary changes nothing on the fault-free path: injection
   configured at rate 0, and a budget that never runs out, must leave
   every report byte-identical to the plain run, provenance included.
   Each run starts from an empty cache, so every pair is solved under
   the configuration being checked.  Injection is switched off locally
   for the baseline, so the case holds under @matrix-ci too. *)
let test_fault_free_configs_change_nothing () =
  let progs =
    List.map
      (fun name ->
        Pipeline.prepare_program
          (Corpus.generate
             (List.find (fun s -> s.Corpus.name = name) Corpus.riceps)))
      [ "SPHOT"; "SIMPLE" ]
    @ List.map
        (fun depth -> prepare (Workload.family_program ~depth ~extent:10))
        [ 1; 2; 3; 4 ]
    @ List.map prepare
        [ Fragments.fig3_program; Fragments.mhl_program; Fragments.ib_program ]
  in
  let report chaos budget =
    with_chaos chaos (fun () ->
        Engine.reset_metrics ();
        String.concat "\n"
          (List.concat_map
             (fun prog ->
               List.map
                 (fun (d : Analyze.dep) ->
                   Format.asprintf "%a  decided_by: %s" Analyze.pp_dep d
                     d.Analyze.via)
                 (Analyze.deps_of_program ?budget prog))
             progs))
  in
  let baseline = report None None in
  Alcotest.(check bool) "the programs have dependences" true (baseline <> "");
  Alcotest.(check string) "chaos at rate 0" baseline
    (report (Some (Chaos.make ~seed:7L ~rate:0.0)) None);
  Alcotest.(check string) "fuel max_int" baseline
    (report None (Some (Budget.create ~fuel:max_int ())))

(* --- chaos: exact fault accounting ---------------------------------------- *)

let chaos_reasons =
  [
    "chaos:raise"; "chaos:unknown"; "overflow:chaos"; "budget:chaos";
    "div0:chaos";
  ]

let chaos_attributed stats =
  List.fold_left
    (fun acc (labels, n) ->
      if List.mem (List.assoc "reason" labels) chaos_reasons then acc + n
      else acc)
    0 (degradation_cells stats)

let test_every_strike_accounted () =
  let chaos = chaos_cfg 2024L in
  let stats = Stats.create () in
  let cache = Query.create_cache () in
  List.iter
    (fun prog ->
      let ps, env = problems_of_prog prog in
      List.iter
        (fun p -> ignore (Engine.query ~stats ~cache ~chaos ~env p))
        ps)
    (workload_programs ());
  let strikes = Chaos.strikes chaos in
  Alcotest.(check bool) "the seed actually struck" true (strikes > 0);
  Alcotest.(check int)
    "stats degradations = injected faults" strikes (chaos_attributed stats)

let test_accounting_survives_domains () =
  let chaos = chaos_cfg 4242L in
  let stats = Stats.create () in
  let cache = Query.create_cache () in
  List.iter
    (fun prog ->
      let accs, env = Access.of_program prog in
      Pool.with_pool ~domains:Width.jobs (fun pool ->
          ignore (Engine.query_all ~stats ~cache ~chaos ~pool ~env accs)))
    (workload_programs ());
  let strikes = Chaos.strikes chaos in
  Alcotest.(check bool) "struck" true (strikes > 0);
  Alcotest.(check int)
    "atomic counters agree across domains" strikes (chaos_attributed stats)

let test_strike_on_worker_domain () =
  (* Chunks of one query pass spread over the pool's domains, with
     injection striking mid-run: a strike that fires on a worker domain
     must still cost exactly one degraded answer — [strikes =
     chaos-attributed degradations] — and the output must keep the
     serial rows.  The cache is warmed by the clean serial pass, so in
     the chaotic pass only a struck problem misses (a struck problem
     skips the lookup, and its degraded answer is never cached); the
     observer records the domain of every miss.  Until a miss has run
     off the calling domain, the observer also slows the caller's
     queries down to 1 ms each: each map then outlasts the pool's spawn
     threshold, and the helpers, answering from the warm cache, take
     the chunks the caller has not reached, struck ones included. *)
  let progs = workload_programs () in
  let cache = Query.create_cache () in
  let serial =
    with_chaos None @@ fun () ->
    List.map
      (fun prog ->
        let accs, env = Access.of_program prog in
        List.map
          (fun (_, (r : Strategy.result)) -> r.Strategy.verdict)
          (Engine.query_all ~stats:(Stats.create ()) ~cache ~env accs))
      progs
  in
  let caller = Domain.self () in
  let chaos = chaos_cfg 9001L in
  let stats = Stats.create () in
  let on_worker = Atomic.make false in
  let observer d =
    if Domain.self () <> caller then begin
      if d = Query.Miss then Atomic.set on_worker true
    end
    else if not (Atomic.get on_worker) then Unix.sleepf 0.001
  in
  let par =
    List.map
      (fun prog ->
        let accs, env = Access.of_program prog in
        Width.with_pool (fun pool ->
            List.map
              (fun (_, (r : Strategy.result)) -> r.Strategy.verdict)
              (Engine.query_all ~stats ~cache ~chaos ~observer ~pool ~env
                 accs)))
      progs
  in
  let strikes = Chaos.strikes chaos in
  Alcotest.(check bool) "the seed struck" true (strikes > 0);
  Alcotest.(check int)
    "one degradation per strike, on any domain" strikes
    (chaos_attributed stats);
  (* Degraded-to-conservative only: never a dropped or extra row. *)
  List.iter2
    (fun s p ->
      Alcotest.(check int) "row counts match serial" (List.length s)
        (List.length p))
    serial par;
  Alcotest.(check bool) "a strike landed on a worker domain" true
    (Atomic.get on_worker)

(* --- chaos: zero-divisor strikes ------------------------------------------ *)

let test_div0_strikes_contained () =
  (* Injected [Intx.Div_by_zero] (one of the five strike kinds) must be
     contained as a ["div0:chaos"] degradation.  Before the division
     helpers got a typed error, the raw [Stdlib.Division_by_zero] sat
     outside the fault taxonomy and a strike killed the whole query
     instead of degrading it. *)
  let chaos = chaos_cfg 77L in
  let stats = Stats.create () in
  let cache = Query.create_cache () in
  List.iter
    (fun prog ->
      let ps, env = problems_of_prog prog in
      List.iter
        (fun p ->
          (* Reaching the verdict at all is the containment check: an
             uncontained strike raises out of [query]. *)
          let r = Engine.query ~stats ~cache ~chaos ~env p in
          ignore r.Strategy.verdict)
        ps)
    (workload_programs ());
  Alcotest.(check bool) "the seed struck" true (Chaos.strikes chaos > 0);
  let div0_rows =
    List.fold_left
      (fun acc (labels, n) ->
        if List.assoc "reason" labels = "div0:chaos" then acc + n else acc)
      0 (degradation_cells stats)
  in
  Alcotest.(check bool)
    "at least one div0 strike degraded, none escaped" true (div0_rows > 0)

(* --- strike decisions pinned ------------------------------------------ *)

(* Whether [7:0.1] strikes [delinearize], [classic] and [gcd] on every
   case of the oracle's mixed batch (seed 1, 5,000 cases), the
   polybench pairs and the RiCEPS corpus pairs, one line per decision,
   digested.  The decision hashes the problem's content, so this pins
   that content as the hash sees it: a change to how a problem is
   stored must leave every decision where it was, or every chaos run
   (and [GOLDEN-chaos.ndjson]) meets different faults. *)
let strike_decisions_md5 = "b3d92de5c170c8b69fff16803f99e08d"

let test_strike_decisions_pinned () =
  let module Eqgen = Dlz_oracle.Eqgen in
  let chaos = Chaos.make ~seed:7L ~rate:0.1 in
  let cases =
    Eqgen.all ~seed:1L ~count:5000 @ Eqgen.polybench () @ Eqgen.corpus ()
  in
  let lines =
    List.concat_map
      (fun strategy ->
        List.map
          (fun (c : Eqgen.case) ->
            Printf.sprintf "%s %s %b" c.Eqgen.id strategy
              (Chaos.would_strike chaos ~strategy c.Eqgen.problem))
          cases)
      [ "delinearize"; "classic"; "gcd" ]
  in
  Alcotest.(check int) "decisions" (3 * List.length cases) (List.length lines);
  Alcotest.(check string) "digest of the strike decisions"
    strike_decisions_md5
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let () =
  Alcotest.run "chaos"
    [
      ( "config",
        [
          Alcotest.test_case "of_string round-trips" `Quick
            test_of_string_roundtrip;
          Alcotest.test_case "of_string rejects garbage" `Quick
            test_of_string_rejects_garbage;
          Alcotest.test_case "strike decisions pinned" `Quick
            test_strike_decisions_pinned;
          Alcotest.test_case "rate clamped to [0,1]" `Quick test_rate_clamped;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "contained in every mode, serial and parallel"
            `Quick test_overflow_contained_every_mode;
          Alcotest.test_case "counted in stats" `Quick
            test_overflow_counted_in_stats;
        ] );
      ( "budget",
        [
          Alcotest.test_case "tiny fuel terminates conservatively" `Quick
            test_tiny_fuel_terminates_conservatively;
          Alcotest.test_case "exhausted budget short-circuits" `Quick
            test_exhausted_budget_degrades_without_running;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "verdicts only degrade" `Quick
            test_chaos_verdicts_only_degrade;
          Alcotest.test_case "jobs N = jobs 1 under injection" `Quick
            test_chaos_parallel_equals_serial;
          Alcotest.test_case "fault-free configurations change nothing"
            `Quick test_fault_free_configs_change_nothing;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "every strike is one degradation" `Quick
            test_every_strike_accounted;
          Alcotest.test_case "strike on a worker domain" `Quick
            test_strike_on_worker_domain;
          Alcotest.test_case "accounting survives domains" `Quick
            test_accounting_survives_domains;
        ] );
      ( "div0",
        [
          Alcotest.test_case "zero-divisor strikes degrade, not crash" `Quick
            test_div0_strikes_contained;
        ] );
    ]
