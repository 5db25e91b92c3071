(* End-to-end soundness against trace-based (dynamic) ground truth:
   every dependence that actually happens at run time must be covered by
   a statically reported one, on the paper's fragments, on every
   polybench kernel (C frontend, pointer lowering and normalization
   included) and on random generated programs; and the vectorizer must
   never vectorize a level that dynamically carries a self dependence. *)

module Dynamic = Dlz_driver.Dynamic
module Progen = Dlz_driver.Progen
module Fragments = Dlz_driver.Fragments
module Analyze = Dlz_engine.Analyze
module Codegen = Dlz_vec.Codegen
module Dirvec = Dlz_deptest.Dirvec
module Rangevec = Dlz_deptest.Rangevec
module Prng = Dlz_base.Prng
module Ast = Dlz_ir.Ast

let prepare src =
  Dlz_passes.Pipeline.prepare_program (Dlz_frontend.F77_parser.parse src)

let coverage_case name ?syms src =
  Alcotest.test_case name `Quick (fun () ->
      let prog = prepare src in
      let dyn = Dynamic.dependences ?syms prog in
      let static = Analyze.deps_of_program prog in
      match Dynamic.uncovered dyn static with
      | [] -> ()
      | u ->
          Alcotest.failf "%d uncovered dynamic dependences, first S%d->S%d %s"
            (List.length u)
            ((List.hd u).Dynamic.src_stmt + 1)
            ((List.hd u).Dynamic.dst_stmt + 1)
            (Dirvec.to_string (List.hd u).Dynamic.vec))

let coverage_units_prog name prog =
  Alcotest.test_case name `Quick (fun () ->
      let dyn = Dynamic.dependences prog in
      let static = Analyze.deps_of_program prog in
      Alcotest.(check int) (name ^ " covered") 0
        (List.length (Dynamic.uncovered dyn static)))

let common_prog =
  prepare
    "      REAL A(0:9), B(0:9)\n\
    \      COMMON /BUF/ A, B\n\
    \      DO 1 I = 0, 9\n\
     1     A(I) = B(I) + 1\n\
    \      END\n"

let assoc_prog =
  Dlz_passes.Pipeline.prepare_program
    (Dlz_passes.Inline.expand
       (Dlz_frontend.F77_parser.parse_units
          "      REAL A(0:9,0:9)\n\
          \      CALL COPY(A)\n\
          \      END\n\
          \      SUBROUTINE COPY(B)\n\
          \      REAL B(0:4,0:19)\n\
          \      DO 1 I = 0, 4\n\
          \      DO 1 J = 0, 9\n\
           1     B(I,2*J+1) = B(I,2*J)\n\
          \      END\n"))

let fragment_units =
  [
    coverage_units_prog "COMMON sequence association" common_prog;
    coverage_units_prog "inlined dummy/actual association" assoc_prog;
    coverage_case "intro serial" Fragments.intro_serial;
    coverage_case "intro parallel" Fragments.intro_parallel;
    coverage_case "eq1 program" Fragments.eq1_program;
    coverage_case "fig3 program" Fragments.fig3_program;
    coverage_case "mhl program" Fragments.mhl_program;
    coverage_case "equivalence 2d" Fragments.equivalence_2d;
    coverage_case "equivalence 4d" Fragments.equivalence_4d;
    coverage_case "ib program"
      ~syms:[ ("II", 3); ("JJ", 2); ("KK", 4); ("Q", 1) ]
      Fragments.ib_program;
    coverage_case "symbolic program (N=4)" ~syms:[ ("N", 4) ]
      Fragments.symbolic_program;
  ]

(* Each kernel at its committed sizes, through the whole pipeline. *)
let polybench_units =
  List.map
    (fun (k : Dlz_corpus.Polybench.kernel) ->
      coverage_units_prog k.k_name
        (Dlz_passes.Pipeline.prepare_program
           (Dlz_passes.Pointers.lower
              (Dlz_frontend.C_parser.parse k.k_source))))
    Dlz_corpus.Polybench.kernels

let carrying_level (v : Dirvec.t) =
  let n = Array.length v in
  let rec go i =
    if i >= n then None
    else
      match v.(i) with
      | Dirvec.Eq -> go (i + 1)
      | _ -> Some (i + 1)
  in
  go 0

let props =
  let arb_seed =
    QCheck.make
      ~print:(fun s ->
        Ast.to_string (Progen.random (Prng.create (Int64.of_int s))))
      QCheck.Gen.(int_range 0 1_000_000)
  in
  [
    QCheck.Test.make ~name:"analyzer covers dynamic dependences" ~count:250
      arb_seed
      (fun seed ->
        let prog = Progen.random (Prng.create (Int64.of_int seed)) in
        let dyn = Dynamic.dependences prog in
        let static = Analyze.deps_of_program prog in
        Dynamic.uncovered dyn static = []);
    QCheck.Test.make ~name:"exact-mode analyzer also covers dynamic deps"
      ~count:100 arb_seed
      (fun seed ->
        let prog = Progen.random (Prng.create (Int64.of_int seed)) in
        let dyn = Dynamic.dependences prog in
        let static =
          Analyze.deps_of_program
            ~cascade:(Analyze.cascade_of_mode Analyze.ExactMode) prog
        in
        Dynamic.uncovered dyn static = []);
    QCheck.Test.make
      ~name:"classic-mode analyzer also covers dynamic dependences"
      ~count:150 arb_seed
      (fun seed ->
        let prog = Progen.random (Prng.create (Int64.of_int seed)) in
        let dyn = Dynamic.dependences prog in
        let static =
          Analyze.deps_of_program
            ~cascade:(Analyze.cascade_of_mode Analyze.Classic) prog
        in
        Dynamic.uncovered dyn static = []);
    QCheck.Test.make
      ~name:"vectorized levels carry no dynamic self dependence" ~count:250
      arb_seed
      (fun seed ->
        let prog = Progen.random (Prng.create (Int64.of_int seed)) in
        let dyn = Dynamic.dependences prog in
        let r = Codegen.run prog in
        List.for_all
          (fun (pl : Codegen.plan) ->
            List.for_all
              (fun (d : Dynamic.dep) ->
                if
                  d.Dynamic.src_stmt = pl.Codegen.stmt_id
                  && d.Dynamic.dst_stmt = pl.Codegen.stmt_id
                then
                  match carrying_level d.Dynamic.vec with
                  | Some l -> not (List.mem l pl.Codegen.vec_levels)
                  | None -> true
                else true)
              dyn)
          r.Codegen.plans);
    QCheck.Test.make
      ~name:"direction-based range vectors cover exact ranges" ~count:150
      arb_seed
      (fun seed ->
        let prog = Progen.random (Prng.create (Int64.of_int seed)) in
        let accs, env = Dlz_ir.Access.of_program prog in
        let module Problem = Dlz_deptest.Problem in
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                match Problem.of_accesses a b with
                | None -> true
                | Some p -> (
                    match Problem.to_numeric p with
                    | None -> true
                    | Some np -> (
                        let r = Dlz_engine.Engine.query ~env p in
                        match
                          Rangevec.of_exact ~common_ubs:np.Problem.common_ubs
                            np.Problem.eqs
                        with
                        | None -> true
                        | Some exact ->
                            r.Dlz_engine.Strategy.dirvecs = []
                            || Rangevec.subsumes
                                 (Rangevec.of_directions
                                    ~common_ubs:np.Problem.common_ubs
                                    r.Dlz_engine.Strategy.dirvecs)
                                 exact)))
              accs)
          accs);
  ]

let () =
  Alcotest.run "dynamic"
    [
      ("fragments", fragment_units);
      ("polybench", polybench_units);
      ("props", List.map QCheck_alcotest.to_alcotest props);
    ]
