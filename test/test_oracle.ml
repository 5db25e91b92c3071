(* The differential soundness oracle (lib/oracle): the brute-force
   enumerator against the exact solver, the JSON problem codec replays
   are written in,
   the deterministic shrinker, and the cross-check driver — including a
   planted unsound strategy the driver must catch, pinned-seed sweeps
   that must stay clean, and checked-in counterexamples from the bugs
   the oracle's families were built to flush out.

   Under the @matrix-ci alias this binary also runs with DLZ_ORACLE_SEED
   / DLZ_TEST_JOBS overriding the sweep configuration (serial when
   DLZ_TEST_JOBS is unset). *)

open Dlz_oracle
module Budget = Dlz_base.Budget
module Intx = Dlz_base.Intx
module Numth = Dlz_base.Numth
module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Depeq = Dlz_deptest.Depeq
module Exact = Dlz_deptest.Exact
module Verdict = Dlz_deptest.Verdict
module Problem = Dlz_deptest.Problem
module Strategy = Dlz_engine.Strategy
module Registry = Dlz_engine.Registry
module Stats = Dlz_engine.Stats
module Jsonx = Dlz_serve.Jsonx
module Proto = Dlz_serve.Proto

let var ?(side = `Src) ~level name ub = Depeq.var ~side ~level name ub

let numeric ?(n_common = 1) ?(common_ubs = [| 6 |]) eqs =
  Problem.numeric_of_equations ~n_common ~common_ubs eqs

(* The one encoding of a numeric problem: the [query] verb's JSON. *)
let to_json np = Jsonx.to_string (Proto.problem_to_json np)
let of_json s = Result.bind (Jsonx.parse s) Proto.numeric_of_json

let sweep_seed =
  match Sys.getenv_opt "DLZ_ORACLE_SEED" with
  | Some s -> ( try Int64.of_string s with Failure _ -> 1L)
  | None -> 1L

let sweep_jobs = match Width.requested with Some n -> max 1 n | None -> 1

(* [Differ.run] at the sweep width. *)
let sweep_run ?shrink cases =
  Dlz_base.Pool.with_jobs ~jobs:sweep_jobs (fun pool ->
      Differ.run ?pool ?shrink cases)

(* --- the enumerator ------------------------------------------------------- *)

let oracle_units =
  [
    Alcotest.test_case "empty system is trivially satisfiable" `Quick
      (fun () ->
        match Oracle.decide (numeric []) with
        | Oracle.Sat [] -> ()
        | _ -> Alcotest.fail "expected Sat []");
    Alcotest.test_case "constant-only equation" `Quick (fun () ->
        (match Oracle.decide (numeric [ Depeq.make 3 [] ]) with
        | Oracle.Unsat -> ()
        | _ -> Alcotest.fail "3 = 0 should be Unsat");
        match Oracle.decide (numeric [ Depeq.make 0 [] ]) with
        | Oracle.Sat _ -> ()
        | _ -> Alcotest.fail "0 = 0 should be Sat");
    Alcotest.test_case "witness satisfies every equation" `Quick (fun () ->
        let eqs =
          [
            Depeq.make (-5)
              [ (1, var ~level:1 "i1" 4); (2, var ~side:`Dst ~level:1 "i2" 4) ];
            Depeq.make (-3) [ (1, var ~level:1 "i1" 4) ];
          ]
        in
        match Oracle.decide (numeric eqs) with
        | Oracle.Sat w ->
            List.iter
              (fun eq ->
                let v =
                  List.fold_left
                    (fun acc (t : Depeq.term) ->
                      let _, x =
                        List.find
                          (fun (v, _) -> Depeq.same_var v t.Depeq.var)
                          w
                      in
                      acc + (t.Depeq.coeff * x))
                    eq.Depeq.c0 eq.Depeq.terms
                in
                Alcotest.(check int) "eq holds at witness" 0 v)
              eqs
        | _ -> Alcotest.fail "expected a witness (i1=3, i2=1)");
    Alcotest.test_case "box larger than the limit is unknown" `Quick
      (fun () ->
        let eqs =
          [ Depeq.make 0 [ (1, var ~level:1 "i" 999); (1, var ~level:2 "j" 999) ] ]
        in
        match
          Oracle.decide ~limit:100
            (numeric ~n_common:2 ~common_ubs:[| 999; 999 |] eqs)
        with
        | Oracle.Unknown "limit" -> ()
        | Oracle.Unknown r -> Alcotest.failf "unknown for %s, expected limit" r
        | _ -> Alcotest.fail "million-point box must not be scanned");
    Alcotest.test_case "exhausted budget is unknown, not a guess" `Quick
      (fun () ->
        let eqs = [ Depeq.make (-12) [ (1, var ~level:1 "i" 6) ] ] in
        match
          Oracle.decide ~budget:(Budget.create ~fuel:2 ()) (numeric eqs)
        with
        | Oracle.Unknown r ->
            Alcotest.(check bool) "budget taint" true
              (String.length r >= 6 && String.sub r 0 6 = "budget")
        | _ -> Alcotest.fail "2 points of fuel cannot refute a 7-point box");
    Alcotest.test_case "overflowing points taint, not decide" `Quick
      (fun () ->
        (* max_int*2 overflows at i=2; the only would-be solutions sit
           in evaluable territory, but the oracle cannot know the
           overflowed point is not one. *)
        let eqs = [ Depeq.make 1 [ (max_int, var ~level:1 "i" 2) ] ] in
        match Oracle.decide (numeric eqs) with
        | Oracle.Unknown "overflow" -> ()
        | Oracle.Sat _ -> Alcotest.fail "no solution exists"
        | o ->
            Alcotest.failf "expected overflow taint, got %s"
              (match o with
              | Oracle.Unsat -> "Unsat"
              | Oracle.Unknown r -> "Unknown " ^ r
              | _ -> "?"));
  ]

(* The naive scan against the pruned backtracking solver: when both
   decide, they must agree — they share no code. *)
let oracle_vs_exact =
  Alcotest.test_case "agrees with the exact solver on 400 random systems"
    `Quick (fun () ->
      List.iter
        (fun (c : Eqgen.case) ->
          match
            (Oracle.decide c.Eqgen.ground, Exact.solve c.Eqgen.ground.Problem.eqs)
          with
          | Oracle.Sat _, Exact.Infeasible ->
              Alcotest.failf "%s: oracle Sat, exact Infeasible" c.Eqgen.id
          | Oracle.Unsat, Exact.Feasible _ ->
              Alcotest.failf "%s: oracle Unsat, exact Feasible" c.Eqgen.id
          | _ -> ())
        (Eqgen.random ~seed:11L ~count:400))

(* --- the replay codec ----------------------------------------------------- *)

let codec_units =
  [
    Alcotest.test_case "round-trips and is canonical" `Quick (fun () ->
        List.iter
          (fun (c : Eqgen.case) ->
            let s = to_json c.Eqgen.ground in
            match of_json s with
            | Error e -> Alcotest.failf "%s: no parse: %s" c.Eqgen.id e
            | Ok np ->
                Alcotest.(check string) (c.Eqgen.id ^ " canonical") s (to_json np))
          (Eqgen.all ~seed:5L ~count:150));
    Alcotest.test_case "extreme magnitudes survive the text round-trip"
      `Quick (fun () ->
        let np =
          numeric
            [
              Depeq.make (1 - max_int)
                [
                  (max_int - 2, var ~level:1 "i1" 2);
                  (-(max_int / 2), var ~side:`Dst ~level:1 "i2" 2);
                ];
            ]
        in
        let s = to_json np in
        match of_json s with
        | Ok np' -> Alcotest.(check string) "canonical" s (to_json np')
        | Error e -> Alcotest.failf "no parse: %s" e);
    Alcotest.test_case "malformed inputs are rejected, not crashes" `Quick
      (fun () ->
        let term ?(coeff = 1) ?(level = 1) ?(ub = 3) () =
          Printf.sprintf
            {|{"coeff":%d,"side":"src","level":%d,"ub":%d,"name":"i"}|}
            coeff level ub
        in
        let problem ?(n_common = 1) ?(common_ubs = "[3]") eqs =
          Printf.sprintf
            {|{"n_common":%d,"common_ubs":%s,"opaque_dims":0,"eqs":[%s]}|}
            n_common common_ubs (String.concat "," eqs)
        in
        let eq terms =
          Printf.sprintf {|{"c0":1,"terms":[%s]}|} (String.concat "," terms)
        in
        List.iter
          (fun s ->
            match of_json s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%S should not parse" s)
          [
            (* the shapes a broken file or frame takes *)
            "";
            {|{"n_common":1|};
            "{}";
            {|"problem" {"n_common":1}|};
            problem ~common_ubs:"[]" [];
            problem ~n_common:2 [];
            problem ~common_ubs:{|["x"]|} [];
            problem [ eq [ {|{"coeff":1,"side":"src"}|} ] ];
            (* the decoder's own limits *)
            problem [ eq [ term ~ub:(-1) () ] ];
            problem [ eq [ term ~level:65 () ] ];
            problem [ eq (List.init 65 (fun _ -> term ())) ];
            problem (List.init 65 (fun _ -> eq [ term () ]));
            problem ~n_common:0 [];
          ]);
  ]

(* --- the planted liar ----------------------------------------------------- *)

let liar_name = "zz-test-liar"

let liar_strategy ~active =
  {
    Strategy.name = liar_name;
    applies = (fun ~env:_ p -> active && Problem.to_numeric p <> None);
    run =
      (fun ~env:_ ~budget:_ _ -> Strategy.Decided (Verdict.Independent, [], []));
  }

let with_liar f =
  Registry.register (liar_strategy ~active:true);
  (* No unregister: neuter it instead (applies = false keeps it out of
     every cascade and every differential sweep that follows). *)
  Fun.protect
    ~finally:(fun () -> Registry.register (liar_strategy ~active:false))
    f

let liar_units =
  [
    Alcotest.test_case "an always-independent strategy is caught UNSOUND"
      `Quick (fun () ->
        with_liar @@ fun () ->
        let report = Differ.run (Eqgen.random ~seed:3L ~count:60) in
        let unsound = Differ.count_class report Differ.Unsound in
        Alcotest.(check bool) "caught" true (unsound > 0);
        List.iter
          (fun (d : Differ.divergence) ->
            Alcotest.(check string) "only the liar diverges" liar_name
              d.Differ.d_strategy)
          report.Differ.r_divergences);
    Alcotest.test_case "shrinking the liar's counterexamples is deterministic"
      `Quick (fun () ->
        with_liar @@ fun () ->
        let cases = Eqgen.random ~seed:3L ~count:30 in
        let replays report =
          List.map
            (fun (d : Differ.divergence) -> d.Differ.d_replay)
            report.Differ.r_divergences
        in
        let a = replays (Differ.run ~shrink:true cases) in
        let b = replays (Differ.run ~shrink:true cases) in
        Alcotest.(check bool) "found something to shrink" true (a <> []);
        Alcotest.(check (list string)) "byte-identical minimized replays" a b;
        (* Every minimized counterexample still convicts: it parses and
           remains satisfiable, which is all independence-claim
           unsoundness needs. *)
        List.iter
          (fun s ->
            match of_json s with
            | Error e -> Alcotest.failf "minimized replay no parse: %s" e
            | Ok np -> (
                match Oracle.decide np with
                | Oracle.Sat _ -> ()
                | _ -> Alcotest.fail "minimized replay lost the witness"))
          a);
    Alcotest.test_case "an escaping exception is INTERNAL, a taxonomy fault \
                        is not" `Quick (fun () ->
        let raising name exn =
          {
            Strategy.name;
            applies = (fun ~env:_ _ -> true);
            run = (fun ~env:_ ~budget:_ _ -> raise exn);
          }
        in
        Registry.register (raising liar_name Exit);
        let internal =
          Fun.protect
            ~finally:(fun () ->
              Registry.register (liar_strategy ~active:false))
            (fun () ->
              Differ.count_class
                (Differ.run (Eqgen.random ~seed:9L ~count:10))
                Differ.Internal)
        in
        Alcotest.(check bool) "Exit escapes the taxonomy" true (internal > 0);
        Registry.register (raising liar_name (Intx.Overflow "test"));
        let report =
          Fun.protect
            ~finally:(fun () ->
              Registry.register (liar_strategy ~active:false))
            (fun () -> Differ.run (Eqgen.random ~seed:9L ~count:10))
        in
        Alcotest.(check int) "Overflow is a contained fault, not INTERNAL" 0
          (Differ.count_class report Differ.Internal);
        Alcotest.(check bool) "and it is tallied" true
          (report.Differ.r_tally.Differ.t_faults > 0));
  ]

(* --- the shrinker on its own ---------------------------------------------- *)

let shrink_units =
  [
    Alcotest.test_case "fixpoint is deterministic and still failing" `Quick
      (fun () ->
        (* Predicate: the system has an integer solution.  The canonical
           minimum of any satisfiable system under the schedule is the
           empty system. *)
        let still_fails np =
          match Oracle.decide ~limit:50_000 np with
          | Oracle.Sat _ -> true
          | _ -> false
        in
        let np =
          numeric ~n_common:2 ~common_ubs:[| 5; 6 |]
            [
              Depeq.make (-4)
                [
                  (2, var ~level:1 "i1" 5);
                  (3, var ~level:2 "j1" 6);
                  (-1, var ~side:`Dst ~level:1 "i2" 5);
                ];
              Depeq.make 0 [ (1, var ~level:2 "j1" 6) ];
            ]
        in
        Alcotest.(check bool) "starts failing" true (still_fails np);
        let a = Shrink.minimize ~still_fails np in
        let b = Shrink.minimize ~still_fails np in
        Alcotest.(check string) "same fixpoint" (to_json a) (to_json b);
        Alcotest.(check bool) "still fails" true (still_fails a);
        Alcotest.(check int) "all equations gone" 0
          (List.length a.Problem.eqs));
    Alcotest.test_case "predicate exceptions mean no-longer-fails" `Quick
      (fun () ->
        let np =
          numeric [ Depeq.make (-2) [ (1, var ~level:1 "i" 4) ] ]
        in
        (* Fails only on the original; every candidate raises.  The
           minimizer must return the original, not propagate. *)
        let still_fails c = if c == np then true else raise Exit in
        let m = Shrink.minimize ~still_fails np in
        Alcotest.(check string) "unchanged" (to_json np) (to_json m));
    Alcotest.test_case "monotone: never grows the system" `Quick (fun () ->
        let size (np : Problem.numeric) =
          List.fold_left
            (fun acc (eq : Depeq.t) -> acc + 1 + List.length eq.Depeq.terms)
            0 np.Problem.eqs
        in
        List.iter
          (fun (c : Eqgen.case) ->
            let still_fails np =
              match Oracle.decide ~limit:50_000 np with
              | Oracle.Sat _ -> true
              | _ -> false
            in
            if still_fails c.Eqgen.ground then begin
              let m = Shrink.minimize ~still_fails c.Eqgen.ground in
              Alcotest.(check bool) "no larger" true
                (size m <= size c.Eqgen.ground)
            end)
          (Eqgen.random ~seed:21L ~count:40));
  ]

(* --- pinned-seed sweeps ---------------------------------------------------- *)

(* The acceptance bar: the registered cascade has no UNSOUND and no
   INTERNAL divergence on the pinned batches, and the report is
   byte-identical across job counts.  @matrix-ci re-runs this binary
   with DLZ_ORACLE_SEED=2 and DLZ_TEST_JOBS=2. *)
let sweep_units =
  [
    Alcotest.test_case
      (Printf.sprintf "seed %Ld sweep is clean" sweep_seed) `Quick (fun () ->
        let report =
          sweep_run ~shrink:true
            (Eqgen.all ~seed:sweep_seed ~count:300)
        in
        Alcotest.(check int) "checks happened" 0
          (if report.Differ.r_tally.Differ.t_checks > 1000 then 0 else 1);
        (match report.Differ.r_divergences with
        | [] -> ()
        | d :: _ ->
            Alcotest.failf "first divergence: %s %s %s: %s\n%s"
              (Differ.cls_to_string d.Differ.d_class)
              d.Differ.d_strategy d.Differ.d_case d.Differ.d_detail
              d.Differ.d_replay);
        Alcotest.(check int) "no UNSOUND" 0
          (Differ.count_class report Differ.Unsound);
        Alcotest.(check int) "no INTERNAL" 0
          (Differ.count_class report Differ.Internal));
    Alcotest.test_case "corpus cross-check is clean" `Quick (fun () ->
        (* The full corpus at a tight per-case budget: soundness must
           hold regardless of how many boxes the oracle completes. *)
        let cases = Eqgen.corpus () in
        let cases =
          List.filteri (fun i _ -> i mod 7 = 0) cases
          (* every 7th pair: the full set is the `vic fuzz --corpus`
             run's job; here it would dominate the suite's runtime *)
        in
        let report = sweep_run cases in
        Alcotest.(check int) "no UNSOUND" 0
          (Differ.count_class report Differ.Unsound);
        Alcotest.(check int) "no INTERNAL" 0
          (Differ.count_class report Differ.Internal));
    Alcotest.test_case "polybench cross-check is clean" `Quick (fun () ->
        (* Every pair of every vendored polybench kernel, sampled at the
           same rate as the synthetic corpus above; the full set is the
           `vic fuzz --polybench` run's job. *)
        let cases = Eqgen.polybench () in
        let cases = List.filteri (fun i _ -> i mod 7 = 0) cases in
        Alcotest.(check bool) "cases generated" true (List.length cases > 10);
        let report = sweep_run cases in
        Alcotest.(check int) "no UNSOUND" 0
          (Differ.count_class report Differ.Unsound);
        Alcotest.(check int) "no INTERNAL" 0
          (Differ.count_class report Differ.Internal));
    Alcotest.test_case "report is identical for any job count" `Quick
      (fun () ->
        let cases = Eqgen.all ~seed:sweep_seed ~count:120 in
        let serial = Differ.report_to_string (Differ.run cases) in
        let par =
          Dlz_base.Pool.with_pool ~domains:2 (fun pool ->
              Differ.report_to_string (Differ.run ~pool cases))
        in
        Alcotest.(check string) "jobs 2 = jobs 1" serial par);
    Alcotest.test_case "divergence counters land in stats" `Quick (fun () ->
        with_liar @@ fun () ->
        let stats = Stats.create () in
        let report = Differ.run ~stats (Eqgen.random ~seed:3L ~count:40) in
        let engine = Stats.samples stats in
        Alcotest.(check int) "one oracle check recorded per strategy run"
          report.Differ.r_tally.Differ.t_checks
          (Counters.get engine "vic_engine_oracle_checks_total");
        let unsound_rows =
          List.filter
            (fun (labels, _) ->
              labels = [ ("strategy", liar_name); ("class", "unsound") ])
            (Counters.cells engine "vic_engine_divergences_total")
        in
        match unsound_rows with
        | [ (_, n) ] ->
            Alcotest.(check int) "counter matches report" n
              (Differ.count_class report Differ.Unsound)
        | _ -> Alcotest.fail "expected exactly one liar/unsound counter");
  ]

(* --- checked-in counterexamples ------------------------------------------- *)

(* Each of these is a minimized ground problem that, before the fixes in
   this change, drove some strategy into silently wrapped arithmetic or
   an untyped exception.  They replay through the full differential
   check and must stay clean forever. *)
let counterexamples =
  [
    ( "symmetric-mod-huge-modulus",
      (* Residue arithmetic with a modulus above max_int/2: the old
         [2*r > g] midpoint comparison in Numth.symmetric_mod wrapped
         and picked the far representative. *)
      {|{"n_common":1,"common_ubs":[2],"opaque_dims":0,"eqs":[{"c0":-4611686018427387902,"terms":[
        {"coeff":4611686018427387901,"side":"src","level":1,"ub":2,"name":"i1"},
        {"coeff":-2305843009213693951,"side":"dst","level":1,"ub":2,"name":"i2"}]}]}|}
    );
    ( "near-overflow-balanced",
      (* Balanced huge coefficients: solutions exist on the diagonal,
         and every product overflows a naive interval evaluation. *)
      {|{"n_common":1,"common_ubs":[2],"opaque_dims":0,"eqs":[{"c0":0,"terms":[
        {"coeff":4611686018427387900,"side":"src","level":1,"ub":2,"name":"i1"},
        {"coeff":-4611686018427387900,"side":"dst","level":1,"ub":2,"name":"i2"}]}]}|}
    );
    ( "bezout-chain-extremes",
      (* GCD/Bezout chains over near-max coefficients: the unchecked
         egcd quotient chain wrapped its cofactors. *)
      {|{"n_common":1,"common_ubs":[3],"opaque_dims":0,"eqs":[{"c0":1,"terms":[
        {"coeff":4611686018427387903,"side":"src","level":1,"ub":3,"name":"i1"},
        {"coeff":-4611686018427387902,"side":"dst","level":1,"ub":3,"name":"i2"}]}]}|}
    );
    ( "linearized-crossing-stride",
      (* The paper's linearized shape with the row extent crossing the
         stride: i1 + 3*j1 - i2 - 3*j2 - 1 = 0 with i ranging past 3,
         so distinct (i, j) pairs alias the same cell. *)
      {|{"n_common":2,"common_ubs":[5,4],"opaque_dims":0,"eqs":[{"c0":-1,"terms":[
        {"coeff":1,"side":"src","level":1,"ub":5,"name":"i1"},
        {"coeff":3,"side":"src","level":2,"ub":4,"name":"j1"},
        {"coeff":-1,"side":"dst","level":1,"ub":5,"name":"i2"},
        {"coeff":-3,"side":"dst","level":2,"ub":4,"name":"j2"}]}]}|}
    );
    ( "divisor-free-degenerate",
      (* All-zero-coefficient degenerate system: every gcd is 0, which
         used to reach the division helpers as a raw divisor. *)
      {|{"n_common":1,"common_ubs":[0],"opaque_dims":0,"eqs":[
        {"c0":0,"terms":[{"coeff":0,"side":"src","level":1,"ub":0,"name":"i1"}]},
        {"c0":7,"terms":[{"coeff":0,"side":"dst","level":1,"ub":0,"name":"i2"}]}]}|}
    );
  ]

let counterexample_units =
  List.map
    (fun (name, json) ->
      Alcotest.test_case (Printf.sprintf "replay %s" name) `Quick (fun () ->
          match of_json json with
          | Error e -> Alcotest.failf "checked-in problem no parse: %s" e
          | Ok np ->
              let case =
                {
                  Eqgen.id = "replay:" ^ name;
                  family = "replay";
                  problem = Problem.synthetic np;
                  ground = np;
                  env = Assume.empty;
                }
              in
              let report = Differ.run [ case ] in
              (match report.Differ.r_divergences with
              | [] -> ()
              | d :: _ ->
                  Alcotest.failf "%s: %s %s: %s"
                    name
                    (Differ.cls_to_string d.Differ.d_class)
                    d.Differ.d_strategy d.Differ.d_detail);
              Alcotest.(check bool) "strategies actually ran" true
                (report.Differ.r_tally.Differ.t_checks > 0)))
    counterexamples

let () =
  Alcotest.run "dlz_oracle"
    [
      ("oracle", oracle_units @ [ oracle_vs_exact ]);
      ("json-codec", codec_units);
      ("liar", liar_units);
      ("shrink", shrink_units);
      ("sweep", sweep_units);
      ("counterexamples", counterexample_units);
    ]
