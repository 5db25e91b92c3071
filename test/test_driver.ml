(* Tests for dlz_driver: the paper fragments' internal consistency, the
   workload generators, and the experiment plumbing. *)

module Fragments = Dlz_driver.Fragments
module Workload = Dlz_driver.Workload
module Progen = Dlz_driver.Progen
module Dynamic = Dlz_driver.Dynamic
module Experiments = Dlz_driver.Experiments
module Depeq = Dlz_deptest.Depeq
module Verdict = Dlz_deptest.Verdict
module Problem = Dlz_deptest.Problem
module Exact = Dlz_deptest.Exact
module Symeq = Dlz_deptest.Symeq
module Dirvec = Dlz_deptest.Dirvec
module Access = Dlz_ir.Access
module Ast = Dlz_ir.Ast
module Prng = Dlz_base.Prng

let prepare src =
  Dlz_passes.Pipeline.prepare_program (Dlz_frontend.F77_parser.parse src)

(* The hand-built eq1 must be exactly the equation the front end derives
   from the program text (modulo display names). *)
let fragment_units =
  [
    Alcotest.test_case "eq1 () matches the parsed program's equation" `Quick
      (fun () ->
        let prog = prepare Fragments.eq1_program in
        let accs, _ = Access.of_program prog in
        match accs with
        | [ w; r ] -> (
            let p = Option.get (Problem.of_accesses w r) in
            match p.Problem.form with
            | Problem.Numeric np -> (
                match np.Problem.eqs with
                | [ derived ] ->
                    let hand = Fragments.eq1 () in
                    Alcotest.(check int) "c0" hand.Depeq.c0 derived.Depeq.c0;
                    Alcotest.(check (list int))
                      "coefficients (sorted)"
                      (List.sort compare (Depeq.coeffs hand))
                      (List.sort compare (Depeq.coeffs derived));
                    (* Equisatisfiable. *)
                    Alcotest.(check bool) "same satisfiability" true
                      ((Exact.solve [ hand ] = Exact.Infeasible)
                      = (Exact.solve [ derived ] = Exact.Infeasible))
                | _ -> Alcotest.fail "expected one equation")
            | Problem.Symbolic _ -> Alcotest.fail "expected numeric problem")
        | _ -> Alcotest.fail "expected two accesses");
    Alcotest.test_case "fig5 equation matches the paper's constants" `Quick
      (fun () ->
        let eq = Fragments.fig5_equation () in
        Alcotest.(check int) "c0" (-110) eq.Depeq.c0;
        Alcotest.(check (list int)) "coeffs sorted"
          [ -100; -10; -1; 1; 10; 100 ]
          (List.sort compare (Depeq.coeffs eq)));
    Alcotest.test_case "all fragments parse and pipeline" `Quick (fun () ->
        List.iter
          (fun src -> ignore (prepare src))
          [
            Fragments.intro_serial; Fragments.intro_parallel;
            Fragments.eq1_program; Fragments.mhl_program;
            Fragments.fig3_program; Fragments.ib_program;
            Fragments.equivalence_2d; Fragments.equivalence_4d;
            Fragments.symbolic_program;
          ]);
  ]

let workload_units =
  [
    Alcotest.test_case "paper family shapes" `Quick (fun () ->
        let eq = Workload.paper_family ~depth:3 ~extent:10 ~shifted:true in
        Alcotest.(check int) "6 vars" 6 (Depeq.nvars eq);
        Alcotest.(check int) "c0" (-5) eq.Depeq.c0;
        Alcotest.(check (list int)) "strides"
          [ -100; -10; -1; 1; 10; 100 ]
          (List.sort compare (Depeq.coeffs eq)));
    Alcotest.test_case "family invalid arguments" `Quick (fun () ->
        (match Workload.paper_family ~depth:0 ~extent:10 ~shifted:false with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "depth 0");
        match Workload.paper_family ~depth:1 ~extent:7 ~shifted:false with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "odd extent");
    Alcotest.test_case "random generators are deterministic per seed" `Quick
      (fun () ->
        let mk () =
          let g = Prng.create 5L in
          ( Workload.random_linearized g ~depth:3,
            Ast.to_string (Progen.random g) )
        in
        let a1, p1 = mk () and a2, p2 = mk () in
        Alcotest.(check string) "same program" p1 p2;
        Alcotest.(check string) "same equation" (Depeq.to_string a1)
          (Depeq.to_string a2));
  ]

let workload_props =
  [
    QCheck.Test.make ~name:"random_linearized always delinearizes fully"
      ~count:200
      (QCheck.make QCheck.Gen.(int_range 0 100000))
      (fun seed ->
        let g = Prng.create (Int64.of_int seed) in
        let eq = Workload.random_linearized g ~depth:3 in
        (* Each level is its own piece: 3 pieces (or early independence). *)
        let r =
          Dlz_core.Algo.run ~n_common:3 ~common_ubs:[| 9; 9; 9 |] eq
        in
        r.Dlz_core.Algo.verdict = Verdict.Independent
        || List.length r.Dlz_core.Algo.pieces = 3);
    QCheck.Test.make ~name:"progen programs always interpret cleanly"
      ~count:200
      (QCheck.make QCheck.Gen.(int_range 0 100000))
      (fun seed ->
        let prog = Progen.random (Prng.create (Int64.of_int seed)) in
        match Dlz_passes.Interp.run prog with
        | _ -> true
        | exception Dlz_passes.Interp.Error _ -> false);
  ]

let dynamic_units =
  [
    Alcotest.test_case "dynamic deps deterministic" `Quick (fun () ->
        let prog = prepare Fragments.fig3_program in
        let d1 = Dynamic.dependences prog in
        let d2 = Dynamic.dependences prog in
        Alcotest.(check int) "same count" (List.length d1) (List.length d2));
    Alcotest.test_case "serial loop dependence is (<) flow" `Quick (fun () ->
        let prog = prepare Fragments.intro_serial in
        match Dynamic.dependences prog with
        | [ d ] ->
            Alcotest.(check string) "(<)" "(<)"
              (Dlz_deptest.Dirvec.to_string d.Dynamic.vec);
            Alcotest.(check bool) "flow" true
              (d.Dynamic.kind = Dlz_deptest.Classify.True)
        | l -> Alcotest.failf "expected 1 dependence, got %d" (List.length l));
  ]

let experiments_units =
  [
    Alcotest.test_case "all () yields eight reports" `Quick (fun () ->
        (* e2/e8 regenerate corpora and timings; just check ids of the
           cheap ones and the id list shape via run. *)
        List.iter
          (fun id ->
            Alcotest.(check bool) (id ^ " exists") true
              (Experiments.run id <> None))
          [ "e1"; "E1"; "e3"; "e4"; "e5"; "e6"; "e7" ]);
  ]

(* [vic trace] shows, per equation, what [Symalgo.equation] answers;
   the meet of those answers over a pair's equations must be the
   engine's answer under the delin cascade, on every polybench kernel. *)
let trace_units =
  [
    Alcotest.test_case "trace outcomes meet to the engine's delin answer"
      `Quick (fun () ->
        let module Engine = Dlz_engine.Engine in
        let module Symalgo = Dlz_core.Symalgo in
        let dirvecs = Alcotest.(list string) in
        let cache = Dlz_engine.Query.create_cache () in
        List.iter
          (fun (k : Dlz_corpus.Polybench.kernel) ->
            let prog =
              Dlz_passes.Pipeline.prepare_program
                (Dlz_passes.Pointers.lower
                   (Dlz_frontend.C_parser.parse k.k_source))
            in
            let accs, env = Access.of_program prog in
            Seq.iteri
              (fun i (pr : Engine.pair) ->
                let p = pr.problem in
                let n_common, common_ubs, equations, _ =
                  Problem.polynomial p.form
                in
                let solve = Symalgo.equation ~env ~n_common ~common_ubs in
                let verdict, vectors =
                  List.fold_left
                    (fun (v, dvs) eq ->
                      let ve, nv, _ = Symalgo.answer ~n_common (solve eq) in
                      let met = Dirvec.Set.meet dvs nv in
                      if ve = Verdict.Dependent && not (Dirvec.Set.is_empty met)
                      then (v, met)
                      else (Verdict.Independent, Dirvec.Set.empty n_common))
                    (Verdict.Dependent, Dirvec.Set.all_star n_common)
                    equations
                in
                let r =
                  Engine.query ~cascade:Dlz_engine.Cascade.delin ~cache ~env p
                in
                let what = Printf.sprintf "%s pair %d" k.k_name (i + 1) in
                Alcotest.(check string) (what ^ " verdict")
                  (Verdict.to_string r.verdict) (Verdict.to_string verdict);
                Alcotest.check dirvecs (what ^ " vectors")
                  (List.map Dirvec.to_string r.dirvecs)
                  (List.map Dirvec.to_string (Dirvec.Set.to_list vectors)))
              (Engine.pairs_seq accs))
          Dlz_corpus.Polybench.kernels);
  ]

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A pass's integer overflow is an input error: its file becomes an
   ok:false row, and the other files are still reported. *)
let bulk_units =
  [
    Alcotest.test_case "an overflowing kernel is a row, not a crash" `Quick
      (fun () ->
        let dir = Filename.temp_file "dlz_overflow_test" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let write name src =
          let path = Filename.concat dir name in
          let oc = open_out_bin path in
          output_string oc src;
          close_out oc;
          path
        in
        (* Normalizing I = 1, 4 to 0, 3 adds 2^61 to a 2^61 offset. *)
        let bad =
          write "bad.f"
            "      DIMENSION A(10)\n\
            \      DO 10 I = 1, 4\n\
             10    A(2305843009213693952*I+2305843009213693952) = A(1)\n\
            \      END\n"
        in
        let good = write "good.f" Fragments.intro_serial in
        Fun.protect
          ~finally:(fun () ->
            Sys.remove bad;
            Sys.remove good;
            Sys.rmdir dir)
          (fun () ->
            match Dlz_driver.Bulk.run dir with
            | [ bad_row; good_row; summary ] ->
                Alcotest.(check bool) "bad row flagged" true
                  (contains ~sub:"\"ok\":false" bad_row
                  && contains ~sub:"integer overflow in add" bad_row);
                Alcotest.(check bool) "good row ok" true
                  (contains ~sub:"\"ok\":true" good_row);
                Alcotest.(check bool) "summary counts both" true
                  (contains ~sub:"\"files\":2,\"ok\":1,\"errors\":1" summary)
            | rows ->
                Alcotest.failf "expected 3 rows, got %d" (List.length rows)));
  ]

let () =
  Alcotest.run "dlz_driver"
    [
      ("fragments", fragment_units);
      ("workload", workload_units);
      ("workload-props", List.map QCheck_alcotest.to_alcotest workload_props);
      ("dynamic", dynamic_units);
      ("experiments", experiments_units);
      ("trace", trace_units);
      ("bulk", bulk_units);
    ]
