(* Integration tests: every experiment's headline result, checked
   end-to-end through parser -> passes -> analysis, against what the
   paper states. *)

module Experiments = Dlz_driver.Experiments
module Fragments = Dlz_driver.Fragments
module Workload = Dlz_driver.Workload
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Problem = Dlz_deptest.Problem
module Exact = Dlz_deptest.Exact
module Symeq = Dlz_deptest.Symeq
module Algo = Dlz_core.Algo
module Symalgo = Dlz_core.Symalgo
module Analyze = Dlz_engine.Analyze
module Reshape = Dlz_core.Reshape
module Access = Dlz_ir.Access
module Assume = Dlz_symbolic.Assume
module Poly = Dlz_symbolic.Poly
module F77 = Dlz_frontend.F77_parser
module Pipeline = Dlz_passes.Pipeline

let prepare src = Pipeline.prepare_program (F77.parse src)
let verdict = Alcotest.testable Verdict.pp Verdict.equal

(* --- E1 ------------------------------------------------------------------- *)

let e1_units =
  [
    Alcotest.test_case "verdict table matches the paper" `Quick (fun () ->
        let expected =
          [
            ("GCD test [AK87, Ban88]", Verdict.Dependent);
            ("Banerjee inequalities [AK87, WB87]", Verdict.Dependent);
            ("Single Variable Per Constraint [MHL91]", Verdict.Inapplicable);
            ("Acyclic test [MHL91]", Verdict.Dependent);
            ("Lambda-test [LYZ89]", Verdict.Dependent);
            ("Simple Loop Residue [MHL91, Sho81]", Verdict.Inapplicable);
            ("Fourier-Motzkin, real [DE73, MHL91]", Verdict.Dependent);
            ("Fourier-Motzkin + tightening [Pug91]", Verdict.Independent);
            ("Omega test [Pug91] (exact)", Verdict.Independent);
            ("Delinearization (this paper)", Verdict.Independent);
            ("Exact integer solver (ground truth)", Verdict.Independent);
          ]
        in
        let got = Experiments.e1_rows () in
        Alcotest.(check int) "row count" (List.length expected)
          (List.length got);
        List.iter2
          (fun (en, ev) (gn, gv) ->
            Alcotest.(check string) "technique" en gn;
            Alcotest.check verdict en ev gv)
          expected got);
  ]

(* --- E2 ------------------------------------------------------------------- *)

let e2_units =
  [
    Alcotest.test_case "report renders with all-yes column" `Quick (fun () ->
        let report = Experiments.e2 () in
        Alcotest.(check bool) "no failures flagged" false
          (String.length report = 0
          ||
          let lines = String.split_on_char '\n' report in
          List.exists
            (fun l -> String.length l > 2 && String.sub l (String.length l - 4) 2 = "NO")
            lines));
  ]

(* --- E3 ------------------------------------------------------------------- *)

let e3_units =
  [
    Alcotest.test_case "all six paper rows present" `Quick (fun () ->
        let rows = Experiments.e3_rows () in
        let expect pair dv ddv =
          if
            not
              (List.exists (fun (p, v, w) -> p = pair && v = dv && w = ddv) rows)
          then Alcotest.failf "missing row %s %s %s" pair dv ddv
        in
        expect "S2:B -> S2:B" "(*, =)" "(*, 0)";
        expect "S2:B -> S3:B" "(*, =)" "(*, 0)";
        expect "S3:A -> S3:A" "(*, =, =)" "(*, 0, 0)";
        expect "S3:A -> S2:A" "(*, <)" "(*, +1)";
        expect "S3:A -> S4:A" "(*, =)" "(*, 0)";
        expect "S4:Y -> S1:Y" "(<)" "(<)");
    Alcotest.test_case "only the known extra row beyond the paper" `Quick
      (fun () ->
        let rows = Experiments.e3_rows () in
        Alcotest.(check int) "seven rows" 7 (List.length rows);
        Alcotest.(check bool) "extra is S4 self" true
          (List.exists (fun (p, _, _) -> p = "S4:Y -> S4:Y") rows));
  ]

(* --- E4 ------------------------------------------------------------------- *)

let e4_units =
  [
    Alcotest.test_case "figure-5 trace reproduced" `Quick (fun () ->
        let r =
          Algo.run ~n_common:3 ~common_ubs:[| 8; 9; 8 |]
            (Fragments.fig5_equation ())
        in
        Alcotest.check verdict "dependent" Verdict.Dependent r.Algo.verdict;
        let piece_strings =
          List.map Dlz_deptest.Depeq.to_string r.Algo.pieces
        in
        Alcotest.(check int) "three pieces" 3 (List.length piece_strings);
        (* Exactly the paper's separated equations, in scan order. *)
        let constants =
          List.map (fun (p : Dlz_deptest.Depeq.t) -> p.Dlz_deptest.Depeq.c0)
            r.Algo.pieces
        in
        Alcotest.(check (list int)) "constants 0,-10,-100" [ 0; -10; -100 ]
          constants;
        (* Conjunction of pieces equisatisfiable with the original:
           solution counts multiply (Cartesian product). *)
        let count_eq = Exact.count_solutions [ Fragments.fig5_equation () ] in
        let product =
          List.fold_left
            (fun acc p -> acc * Exact.count_solutions [ p ])
            1 r.Algo.pieces
        in
        Alcotest.(check int) "product structure" count_eq product);
  ]

(* --- E5 ------------------------------------------------------------------- *)

let e5_units =
  [
    Alcotest.test_case "distance vector (2,0)" `Quick (fun () ->
        Alcotest.(check (list (pair int int)))
          "exact distances" [ (1, 2); (2, 0) ]
          (Experiments.e5_distances ()));
    Alcotest.test_case "exact solver confirms" `Quick (fun () ->
        let prog = prepare Fragments.mhl_program in
        let accs, _ = Access.of_program prog in
        match accs with
        | [ w; r ] -> (
            let p = Option.get (Problem.of_accesses w r) in
            match p.Problem.form with
            | Problem.Numeric np ->
                Alcotest.(check (option (list int)))
                  "level 1 distances" (Some [ -2 ])
                  (Exact.distance_set ~level:1 np.Problem.eqs);
                Alcotest.(check (option (list int)))
                  "level 2 distances" (Some [ 0 ])
                  (Exact.distance_set ~level:2 np.Problem.eqs)
            | Problem.Symbolic _ -> Alcotest.fail "expected numeric problem")
        | _ -> Alcotest.fail "expected two accesses");
  ]

(* --- E6 ------------------------------------------------------------------- *)

let e6_problem () =
  let prog = prepare Fragments.symbolic_program in
  let accs, env = Access.of_program prog in
  match accs with
  | [ w; r ] -> (
      match Problem.of_accesses w r with
      | Some { form = Problem.Symbolic { equations = eq :: _; _ }; _ } ->
          (eq, env)
      | _ -> Alcotest.fail "expected a symbolic equation")
  | _ -> Alcotest.fail "expected two accesses"

let e6_units =
  [
    Alcotest.test_case "assumption N >= 2 derived from bounds" `Quick
      (fun () ->
        let _, env = e6_problem () in
        Alcotest.(check (option int)) "N >= 2" (Some 2)
          (Assume.lower_bound "N" env));
    Alcotest.test_case "three barriers drawn symbolically" `Quick (fun () ->
        let eq, env = e6_problem () in
        let r = Symalgo.run ~env ~n_common:3 eq in
        Alcotest.(check int) "three pieces" 3 (List.length r.Symalgo.pieces);
        Alcotest.check verdict "dependent" Verdict.Dependent r.Symalgo.verdict;
        (* k-level distance is -1 symbolically. *)
        Alcotest.(check bool) "distance k = -1" true
          (List.exists
             (fun (lvl, d) -> lvl = 3 && Poly.equal d (Poly.const (-1)))
             r.Symalgo.distances));
    Alcotest.test_case "gcds are 1, N, N^2" `Quick (fun () ->
        let eq, env = e6_problem () in
        let r = Symalgo.run ~env ~n_common:3 eq in
        let barrier_gs =
          List.filter_map
            (fun (s : Symalgo.step) ->
              if s.Symalgo.barrier && s.Symalgo.separated <> None then
                Some
                  (match s.Symalgo.gk with
                  | Some g -> Poly.to_string g
                  | None -> "inf")
              else None)
            r.Symalgo.steps
        in
        Alcotest.(check (list string)) "barrier moduli" [ "N"; "N^2"; "inf" ]
          barrier_gs);
    Alcotest.test_case "array reshape recovers A(N,N,N)" `Quick (fun () ->
        let prog = prepare Fragments.symbolic_program in
        let env = Assume.assume_ge "N" 2 Assume.empty in
        let prog', plans = Reshape.apply ~env prog in
        (match plans with
        | [ pl ] ->
            Alcotest.(check int) "3 dims" 3 (List.length pl.Reshape.extents);
            List.iter
              (fun e ->
                Alcotest.(check bool) "extent N" true
                  (Poly.equal e (Poly.sym "N")))
              pl.Reshape.extents
        | _ -> Alcotest.fail "expected one plan");
        let text = Dlz_ir.Ast.to_string prog' in
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          m = 0 || go 0
        in
        Alcotest.(check bool) "write is A(I,J,K)" true
          (contains text "A(I,J,K)");
        Alcotest.(check bool) "read is A(J,1+I,1+K)" true
          (contains text "A(J,1+I,1+K)"));
    Alcotest.test_case "symbolic sound for sampled N" `Quick (fun () ->
        let eq, env = e6_problem () in
        let r = Symalgo.run ~env ~n_common:3 eq in
        List.iter
          (fun n ->
            let neq = Symeq.instantiate (fun _ -> n) eq in
            let nv = Algo.test neq in
            (* symbolic Independent must imply numeric Independent *)
            if
              r.Symalgo.verdict = Verdict.Independent
              && nv <> Verdict.Independent
            then Alcotest.failf "unsound at N=%d" n)
          [ 2; 3; 4; 5; 7; 11 ]);
  ]

(* --- E7 ------------------------------------------------------------------- *)

let e7_units =
  [
    Alcotest.test_case "IB nest fully parallel after substitution" `Quick
      (fun () ->
        let prog = prepare Fragments.ib_program in
        let deps = Analyze.deps_of_program prog in
        let b_deps =
          List.filter
            (fun (d : Analyze.dep) -> d.Analyze.src.Access.array = "B")
            deps
        in
        (* Only the loop-independent (=,=,=) within-iteration flow. *)
        List.iter
          (fun (d : Analyze.dep) ->
            Alcotest.(check string) "(=,=,=)" "(=, =, =)"
              (Dirvec.to_string d.Analyze.dirvec))
          b_deps);
    Alcotest.test_case "2-D aliasing proves independence" `Quick (fun () ->
        Alcotest.(check int) "no deps" 0
          (List.length (Analyze.deps_of_program (prepare Fragments.equivalence_2d))));
    Alcotest.test_case "4-D aliasing keeps only the opaque self-output" `Quick
      (fun () ->
        let deps = Analyze.deps_of_program (prepare Fragments.equivalence_4d) in
        Alcotest.(check int) "one dep" 1 (List.length deps);
        match deps with
        | [ d ] ->
            Alcotest.(check bool) "write-write" true
              (d.Analyze.src.Access.rw = `Write
              && d.Analyze.dst.Access.rw = `Write)
        | _ -> Alcotest.fail "unexpected");
    Alcotest.test_case "C fragment independent end-to-end" `Quick (fun () ->
        let prog =
          Pipeline.prepare_program
            (Dlz_passes.Pointers.lower
               (Dlz_frontend.C_parser.parse Fragments.c_pointers))
        in
        Alcotest.(check int) "no deps" 0
          (List.length (Analyze.deps_of_program prog)));
  ]

(* --- paper section 2: distance-direction vector example ----------------------- *)

let section2_units =
  [
    Alcotest.test_case "A(i,j) = A(2i, j+1) combines direction and distance"
      `Quick (fun () ->
        (* Paper: "direction vector of the only dependence is (<=,>) and
           distance vector is (?,1)... distance-direction vector (<=,1)"
           — in the paper's sink-to-source orientation.  In ours
           (source = write, delta = sink - source) the same dependence
           reads (>=, >) with exact j-distance -1. *)
        let prog =
          prepare
            "      REAL A(0:10,0:9)\n\
            \      DO 1 I = 0, 5\n\
            \      DO 1 J = 0, 8\n\
             1     A(I,J) = A(2*I,J+1)\n\
            \      END\n"
        in
        match Analyze.deps_of_program prog with
        | [ d ] ->
            Alcotest.(check string) "direction" "(>=, >)"
              (Dirvec.to_string d.Analyze.dirvec);
            Alcotest.(check string) "distance-direction" "(>=, -1)"
              (Dlz_deptest.Ddvec.to_string d.Analyze.ddvec)
        | l -> Alcotest.failf "expected one row, got %d" (List.length l));
  ]

(* --- E8 / cross-cutting properties ------------------------------------------ *)

let algo_matches_paper_family =
  QCheck.Test.make ~name:"paper family: shifted independent, unshifted not"
    ~count:50
    (QCheck.pair (QCheck.int_range 1 5) (QCheck.oneofl [ 4; 6; 10 ]))
    (fun (depth, extent) ->
      let shifted = Workload.paper_family ~depth ~extent ~shifted:true in
      let unshifted = Workload.paper_family ~depth ~extent ~shifted:false in
      Algo.test shifted = Verdict.Independent
      && Algo.test unshifted = Verdict.Dependent)

let delin_as_sharp_as_exact_on_family =
  QCheck.Test.make ~name:"random linearized family: delin equals exact"
    ~count:200
    (QCheck.make QCheck.Gen.(int_range 0 100000))
    (fun seed ->
      let g = Dlz_base.Prng.create (Int64.of_int seed) in
      let eq = Workload.random_linearized g ~depth:3 in
      let d = Algo.test eq = Verdict.Independent in
      let e = Exact.test [ eq ] = Verdict.Independent in
      d = e)

let delin_matches_classic_on_unbreakable =
  QCheck.Test.make
    ~name:"inline verdict >= gcd+banerjee sharpness" ~count:300
    (QCheck.make QCheck.Gen.(int_range 0 100000))
    (fun seed ->
      let g = Dlz_base.Prng.create (Int64.of_int seed) in
      let eq =
        Workload.random g ~nvars:4 ~coeffs:[| -10; -3; -1; 1; 3; 10 |]
          ~max_ub:8
      in
      (* If GCD or Banerjee alone refute, the scan must refute too (the
         paper's "as exactly as GCD-test and Banerjee combined"). *)
      let classic =
        Verdict.both (Dlz_deptest.Gcd_test.test eq)
          (Dlz_deptest.Banerjee.test eq)
      in
      classic <> Verdict.Independent || Algo.test eq = Verdict.Independent)

let e8_props =
  [
    algo_matches_paper_family;
    delin_as_sharp_as_exact_on_family;
    delin_matches_classic_on_unbreakable;
  ]

let report_units =
  [
    Alcotest.test_case "every experiment renders" `Quick (fun () ->
        List.iter
          (fun id ->
            match Experiments.run id with
            | Some s ->
                if String.length s < 100 then
                  Alcotest.failf "%s suspiciously short" id
            | None -> Alcotest.failf "%s missing" id)
          [ "e1"; "e3"; "e4"; "e5"; "e6"; "e7" ]);
    Alcotest.test_case "unknown id rejected" `Quick (fun () ->
        Alcotest.(check bool) "none" true (Experiments.run "e99" = None));
  ]

let () =
  Alcotest.run "integration"
    [
      ("e1", e1_units);
      ("e2", e2_units);
      ("e3", e3_units);
      ("e4", e4_units);
      ("e5", e5_units);
      ("e6", e6_units);
      ("e7", e7_units);
      ("section2", section2_units);
      ("e8-props", List.map QCheck_alcotest.to_alcotest e8_props);
      ("reports", report_units);
    ]
