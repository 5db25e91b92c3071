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

(* Dynamic dependences as "S1->S2 kind vec" lines, for exact checks. *)
let show_deps deps =
  List.map
    (fun (d : Dynamic.dep) ->
      Printf.sprintf "S%d->S%d %s %s" (d.Dynamic.src_stmt + 1)
        (d.Dynamic.dst_stmt + 1)
        (match d.Dynamic.kind with
        | Dlz_deptest.Classify.True -> "flow"
        | Dlz_deptest.Classify.Anti -> "anti"
        | _ -> "output")
        (Dirvec.to_string d.Dynamic.vec))
    deps

let exact_case name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string)) name expected
        (show_deps (Dynamic.dependences (prepare src))))

(* A is read at 1, 3, 7 and written at 2, 4, 8: no cell is shared. *)
let pow_src =
  "      REAL A(0:9)\n\
  \      DO 1 K = 1, 3\n\
   1     A(2**K) = A(2**K-1) + 1\n\
  \      END\n"

(* The read of M(0) in the DO bound belongs to no statement. *)
let do_bound_src =
  "      REAL A(0:9), M(0:0)\n\
  \      A(5) = 2\n\
  \      M(0) = 6\n\
  \      DO 1 I = 0, M(0)\n\
   1     A(I) = 1\n\
  \      END\n"

(* B(I) is A(I+2): each iteration reads what a later one writes. *)
let offset_equivalence_src =
  "      REAL A(0:9), B(0:7)\n\
  \      EQUIVALENCE (A(2), B(0))\n\
  \      DO 1 I = 0, 7\n\
   1     A(I) = B(I)\n\
  \      END\n"

(* [prog] is [written] after the pipeline: both run to the same
   dynamic dependences, and [prog]'s static rows cover them. *)
let check_folded written prog =
  let dyn = Dynamic.dependences prog in
  Alcotest.(check bool) "has dependences" true (dyn <> []);
  Alcotest.(check (list string)) "as written" (show_deps dyn)
    (show_deps (Dynamic.dependences written));
  Alcotest.(check (list string)) "uncovered" []
    (show_deps (Dynamic.uncovered dyn (Analyze.deps_of_program prog)))

(* Same-shape members with a symbolic bound: B(I+1) is A(I+1). *)
let symbolic_equivalence_src =
  "      REAL A(0:N-1), B(0:N-1)\n\
  \      EQUIVALENCE (A, B)\n\
  \      DO 1 I = 0, N-2\n\
   1     A(I) = B(I+1)\n\
  \      END\n"

(* B(I+1) is A(I+2): B's first element is A(1), whatever N is. *)
let symbolic_offset_src =
  "      REAL A(0:N-1), B(0:N-1)\n\
  \      EQUIVALENCE (A(1), B)\n\
  \      DO 1 I = 0, N-3\n\
   1     A(I) = B(I+1)\n\
  \      END\n"

(* C(I) is A(I+2) through B, which both groups name. *)
let shared_member_src =
  "      REAL A(0:9), B(0:9), C(0:9)\n\
  \      EQUIVALENCE (A, B), (B(2), C)\n\
  \      DO 1 I = 0, 7\n\
   1     A(I) = B(I+1) + C(I)\n\
  \      END\n"

(* The inliner associates A with B__1 and with C__2 in two groups. *)
let same_actual_src =
  "      REAL A(0:19)\n\
  \      DO 1 I = 0, 19\n\
   1     A(I) = I\n\
  \      CALL COPY(A)\n\
  \      CALL HALF(A)\n\
  \      END\n\
  \      SUBROUTINE COPY(B)\n\
  \      REAL B(0:4,0:3)\n\
  \      DO 2 I = 0, 4\n\
   2     B(I,1) = B(I,0)\n\
  \      END\n\
  \      SUBROUTINE HALF(C)\n\
  \      REAL C(0:9)\n\
  \      DO 3 I = 0, 8\n\
   3     C(I+1) = C(I)\n\
  \      END\n"

(* C overlays A and runs on into B: C(I+11) is B(I+1). *)
let equivalence_on_common_src =
  "      REAL A(0:9), B(0:9), C(0:19)\n\
  \      COMMON /X/ A, B\n\
  \      EQUIVALENCE (C, A)\n\
  \      DO 1 I = 0, 8\n\
   1     B(I) = C(I+11)\n\
  \      END\n"

(* C(1) is B(0), so C(0) is A(9). *)
let offset_on_common_src =
  "      REAL A(0:9), B(0:9), C(0:9)\n\
  \      COMMON /X/ A, B\n\
  \      EQUIVALENCE (C(1), B)\n\
  \      DO 1 I = 0, 9\n\
   1     A(I) = C(I)\n\
  \      END\n"

(* A(0:N-1,0:N-1) and B(0:N*N-1) share storage: B(J*N+I+1) is
   A(I+1,J), so the fold's column-major A(I,J) must meet B's subscript. *)
let symbolic_ranks_src =
  "      REAL A(0:N-1,0:N-1), B(0:N*N-1)\n\
  \      EQUIVALENCE (A, B)\n\
  \      DO 1 J = 0, N-1\n\
  \      DO 1 I = 0, N-2\n\
   1     A(I,J) = B(J*N+I+1)\n\
  \      END\n"

(* Neither extent dominates the other: B(I+1) is A(I+1). *)
let symbolic_extents_src =
  "      REAL A(0:N-1), B(0:M-1)\n\
  \      EQUIVALENCE (A, B)\n\
  \      DO 1 I = 0, N-2\n\
   1     A(I) = B(I+1)\n\
  \      END\n"

(* A block of symbolic size: B starts at N+1, so C(I+N+2) is B(I+1). *)
let symbolic_common_src =
  "      REAL A(0:N), B(0:4), C(0:N+5)\n\
  \      COMMON /X/ A, B\n\
  \      EQUIVALENCE (C, A)\n\
  \      DO 1 I = 0, 3\n\
   1     B(I) = C(I+N+2)\n\
  \      END\n"

(* C starts at M-5, before or after A depending on M, so no member's
   base is provably the lowest: C(I+2,1) is D(I+1). *)
let undecided_base_src =
  "      REAL A(0:M-1,1:6), B(0:5,1:6), C(0:3,0:3), D(0:5)\n\
  \      EQUIVALENCE (A(0,2), D, B), (C(1,1), D(0))\n\
  \      DO 1 I = 0, 1\n\
   1     D(I) = C(I+2,1)\n\
  \      END\n"

(* The loaded program's static rows cover the dynamic dependences of
   the program as written, which are [expected]: a fold that loses an
   alias also loses it from its own dynamic side, so only this
   comparison sees it. *)
let check_as_written ?syms ?(expected = [ "S1->S1 anti (<)" ]) src =
  let dyn = Dynamic.dependences ?syms (Dlz_frontend.F77_parser.parse src) in
  Alcotest.(check (list string)) "as written" expected (show_deps dyn);
  Alcotest.(check (list string)) "uncovered" []
    (show_deps
       (Dynamic.uncovered dyn
          (Analyze.deps_of_program (Dlz_passes.Pipeline.load `F77 src))))

let aliasing_units =
  [
    Alcotest.test_case "EQUIVALENCE onto a COMMON member" `Quick (fun () ->
        check_as_written equivalence_on_common_src);
    Alcotest.test_case "offset EQUIVALENCE onto a COMMON member" `Quick
      (fun () -> check_as_written offset_on_common_src);
    Alcotest.test_case "symbolic EQUIVALENCE of different ranks" `Quick
      (fun () ->
        check_as_written ~syms:[ ("N", 4) ] ~expected:[ "S1->S1 anti (=, <)" ]
          symbolic_ranks_src;
        (* Delinearization splits I + N*J back: a row per dimension. *)
        Alcotest.(check (list string)) "static rows"
          [ "S1:LIN1 -> S1:LIN1  (=, >)  (0, -1)  [true]" ]
          (List.map
             (Format.asprintf "%a" Analyze.pp_dep)
             (Analyze.deps_of_program
                (Dlz_passes.Pipeline.load `F77 symbolic_ranks_src))));
    Alcotest.test_case "symbolic EQUIVALENCE of different extents" `Quick
      (fun () ->
        check_as_written ~syms:[ ("N", 10); ("M", 10) ] symbolic_extents_src);
    Alcotest.test_case "COMMON block of symbolic size" `Quick (fun () ->
        check_as_written ~syms:[ ("N", 3) ] symbolic_common_src);
    Alcotest.test_case "no provably lowest base" `Quick (fun () ->
        check_as_written ~syms:[ ("M", 3) ] undecided_base_src;
        check_as_written ~syms:[ ("M", 9) ] undecided_base_src);
    exact_case "** with a loop-variable exponent" pow_src [];
    exact_case "DO-bound read charged to no statement" do_bound_src
      [ "S1->S3 output ()" ];
    Alcotest.test_case "offset EQUIVALENCE" `Quick (fun () ->
        let prog = prepare offset_equivalence_src in
        let dyn = Dynamic.dependences prog in
        Alcotest.(check (list string)) "folded" [ "S1->S1 anti (<)" ]
          (show_deps dyn);
        (* Interp places the anchors at one address, so the program as
           written has the same dependences as its folded form. *)
        Alcotest.(check (list string)) "as written" (show_deps dyn)
          (show_deps
             (Dynamic.dependences
                (Dlz_frontend.F77_parser.parse offset_equivalence_src)));
        Alcotest.(check (list string)) "uncovered" []
          (show_deps (Dynamic.uncovered dyn (Analyze.deps_of_program prog))));
    coverage_case "unequal-total EQUIVALENCE"
      "      REAL A(0:9), B(0:19)\n\
      \      EQUIVALENCE (A, B)\n\
      \      DO 1 I = 0, 9\n\
       1     A(I) = B(I+1)\n\
      \      END\n";
    Alcotest.test_case "dummy smaller than its actual" `Quick (fun () ->
        let prog =
          Dlz_passes.Pipeline.load `F77
            "      REAL A(0:19)\n\
            \      DO 1 I = 0, 19\n\
             1     A(I) = I\n\
            \      CALL COPY(A)\n\
            \      END\n\
            \      SUBROUTINE COPY(B)\n\
            \      REAL B(0:9)\n\
            \      DO 2 I = 0, 8\n\
             2     B(I) = B(I+1)\n\
            \      END\n"
        in
        let dyn = Dynamic.dependences prog in
        Alcotest.(check bool) "has dependences" true (dyn <> []);
        Alcotest.(check (list string)) "uncovered" []
          (show_deps (Dynamic.uncovered dyn (Analyze.deps_of_program prog))));
    Alcotest.test_case "EQUIVALENCE groups sharing a member" `Quick
      (fun () ->
        check_folded
          (Dlz_frontend.F77_parser.parse shared_member_src)
          (prepare shared_member_src));
    Alcotest.test_case "EQUIVALENCE with symbolic bounds" `Quick (fun () ->
        let prog = Dlz_passes.Pipeline.load `F77 symbolic_equivalence_src in
        let syms = [ ("N", 10) ] in
        let dyn = Dynamic.dependences ~syms prog in
        Alcotest.(check (list string)) "folded" [ "S1->S1 anti (<)" ]
          (show_deps dyn);
        Alcotest.(check (list string)) "as written" (show_deps dyn)
          (show_deps
             (Dynamic.dependences ~syms
                (Dlz_frontend.F77_parser.parse symbolic_equivalence_src)));
        Alcotest.(check (list string)) "static rows"
          [ "S1:LIN1 -> S1:LIN1  (>)  (-1)  [true]" ]
          (List.map
             (Format.asprintf "%a" Analyze.pp_dep)
             (Analyze.deps_of_program prog));
        Alcotest.(check (list string)) "uncovered" []
          (show_deps (Dynamic.uncovered dyn (Analyze.deps_of_program prog))));
    Alcotest.test_case "symbolic EQUIVALENCE at an offset anchor" `Quick
      (fun () ->
        let prog = Dlz_passes.Pipeline.load `F77 symbolic_offset_src in
        let syms = [ ("N", 10) ] in
        let dyn = Dynamic.dependences ~syms prog in
        Alcotest.(check (list string)) "folded" [ "S1->S1 anti (<)" ]
          (show_deps dyn);
        Alcotest.(check (list string)) "as written" (show_deps dyn)
          (show_deps
             (Dynamic.dependences ~syms
                (Dlz_frontend.F77_parser.parse symbolic_offset_src)));
        Alcotest.(check (list string)) "static rows"
          [ "S1:LIN1 -> S1:LIN1  (>)  (-2)  [true]" ]
          (List.map
             (Format.asprintf "%a" Analyze.pp_dep)
             (Analyze.deps_of_program prog));
        Alcotest.(check (list string)) "uncovered" []
          (show_deps (Dynamic.uncovered dyn (Analyze.deps_of_program prog))));
    Alcotest.test_case "two inlined calls with the same actual" `Quick
      (fun () ->
        check_folded
          (Dlz_passes.Inline.expand
             (Dlz_frontend.F77_parser.parse_units same_actual_src))
          (Dlz_passes.Pipeline.load `F77 same_actual_src));
  ]

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

(* Random storage areas: 2-4 arrays of rank 1 or 2 whose extents are
   constants or N, M, N+1 (each at least 3 at the sampled sizes), some
   in COMMON blocks, some EQUIVALENCEd at constant anchors, under a
   2x2 nest whose references reach both ends of every dimension. *)
let storage_program =
  let open QCheck.Gen in
  let names = [ "A"; "B"; "C"; "D" ] in
  let dim =
    pair (int_range 0 1) (oneofl [ "3"; "4"; "6"; "N"; "M"; "N+1" ])
  in
  let hi (lo, e) =
    match int_of_string_opt e with
    | Some e -> string_of_int (lo + e - 1)
    | None -> if lo = 1 then e else e ^ "-1"
  in
  let decl (n, dims) =
    n ^ "("
    ^ String.concat ","
        (List.map (fun d -> Printf.sprintf "%d:%s" (fst d) (hi d)) dims)
    ^ ")"
  in
  let anchor (n, dims) =
    oneof
      [
        return n;
        map
          (fun cs ->
            n ^ "("
            ^ String.concat ","
                (List.map2 (fun (lo, _) c -> string_of_int (lo + c)) dims cs)
            ^ ")")
          (list_repeat (List.length dims) (int_range 0 1));
      ]
  in
  let reference (n, dims) =
    map
      (fun subs -> n ^ "(" ^ String.concat "," subs ^ ")")
      (flatten_l
         (List.map
            (fun ((lo, _) as d) ->
              map2
                (fun far v ->
                  if far then hi d ^ "-(" ^ v ^ ")"
                  else string_of_int lo ^ "+" ^ v)
                bool
                (oneofl [ "I"; "J"; "I+J" ]))
            dims))
  in
  int_range 2 4 >>= fun k ->
  let arrays = List.filteri (fun i _ -> i < k) names in
  list_repeat k (list_size (int_range 1 2) dim) >>= fun shapes ->
  let arrays = List.combine arrays shapes in
  let pick = oneofl arrays in
  let distinct n = shuffle_l arrays >|= List.filteri (fun i _ -> i < n) in
  frequency [ (2, return 0); (2, return 1); (1, return 2) ] >>= fun nb ->
  list_repeat nb (int_range 1 3 >>= distinct) >>= fun blocks ->
  list_size (int_range 0 2)
    (int_range 2 (min 3 k) >>= distinct >>= fun g ->
     flatten_l (List.map anchor g))
  >>= fun groups ->
  let groups =
    if blocks = [] && groups = [] then [ [ "A"; "B" ] ] else groups
  in
  list_size (int_range 1 2) (pair pick (list_size (int_range 1 2) pick))
  >>= fun stmts ->
  flatten_l
    (List.map
       (fun (lhs, rhs) ->
         map2
           (fun l rs ->
             Printf.sprintf "      %s = %s\n" l (String.concat "+" rs))
           (reference lhs)
           (flatten_l (List.map reference rhs)))
       stmts)
  >>= fun body ->
  pair (int_range 3 5) (int_range 3 5) >>= fun (n, m) ->
  let src =
    "      REAL "
    ^ String.concat ", " (List.map decl arrays)
    ^ "\n"
    ^ String.concat ""
        (List.mapi
           (fun i ms ->
             Printf.sprintf "      COMMON /%c/ %s\n"
               (Char.chr (Char.code 'X' + i))
               (String.concat ", " (List.map fst ms)))
           blocks)
    ^ (if groups = [] then ""
       else
         "      EQUIVALENCE "
         ^ String.concat ", "
             (List.map (fun g -> "(" ^ String.concat ", " g ^ ")") groups)
         ^ "\n")
    ^ "      DO I = 0, 1\n      DO J = 0, 1\n" ^ String.concat "" body
    ^ "      ENDDO\n      ENDDO\n      END\n"
  in
  return (src, [ ("N", n); ("M", m) ])

let storage_prop =
  QCheck.Test.make ~name:"storage areas fold or are refused" ~count:300
    (QCheck.make
       ~print:(fun (src, syms) ->
         src
         ^ String.concat " "
             (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) syms))
       storage_program)
    (fun (src, syms) ->
      match Dlz_passes.Pipeline.load `F77 src with
      | exception Dlz_passes.Storage.Error _ -> true
      | prog ->
          Dynamic.uncovered
            (Dynamic.dependences ~syms (Dlz_frontend.F77_parser.parse src))
            (Analyze.deps_of_program prog)
          = [])

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
                    match p.Problem.form with
                    | Problem.Symbolic _ -> true
                    | Problem.Numeric np -> (
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
      ("aliasing", aliasing_units);
      ("polybench", polybench_units);
      ( "props",
        List.map QCheck_alcotest.to_alcotest props
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 33 |])
              storage_prop;
          ] );
    ]
