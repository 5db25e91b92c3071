(* Tests for the delinearization algorithm itself (lib/core): the paper's
   running examples, the Figure-5 trace, and theorem properties. *)

module Depeq = Dlz_deptest.Depeq
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Exact = Dlz_deptest.Exact
module Algo = Dlz_core.Algo
module Theorem = Dlz_core.Theorem

let verdict = Alcotest.testable Verdict.pp Verdict.equal

(* Paper equation (1): i1 + 10*j1 - i2 - 10*j2 - 5 = 0,
   i in [0,4], j in [0,9]. *)
let eq1 () =
  Depeq.make (-5)
    [
      (1, Depeq.var ~side:`Src ~level:1 "i1" 4);
      (10, Depeq.var ~side:`Src ~level:2 "j1" 9);
      (-1, Depeq.var ~side:`Dst ~level:1 "i2" 4);
      (-10, Depeq.var ~side:`Dst ~level:2 "j2" 9);
    ]

(* Figure 5 equation: 100k1 - 100k2 + 10j1 - 10i2 + i1 - j2 - 110 = 0,
   i,k in [0,8], j in [0,9]. *)
let eq_fig5 () =
  Depeq.make (-110)
    [
      (100, Depeq.var ~side:`Src ~level:3 "k1" 8);
      (-100, Depeq.var ~side:`Dst ~level:3 "k2" 8);
      (10, Depeq.var ~side:`Src ~level:2 "j1" 9);
      (-10, Depeq.var ~side:`Dst ~level:1 "i2" 8);
      (1, Depeq.var ~side:`Src ~level:1 "i1" 8);
      (-1, Depeq.var ~side:`Dst ~level:2 "j2" 9);
    ]

let test_eq1_independent () =
  Alcotest.check verdict "delinearization proves (1) independent"
    Verdict.Independent (Algo.test (eq1 ()));
  Alcotest.check verdict "exact solver agrees" Verdict.Independent
    (Exact.test [ eq1 () ])

let test_eq1_run () =
  let r = Algo.run ~n_common:2 ~common_ubs:[| 4; 9 |] (eq1 ()) in
  Alcotest.check verdict "run verdict" Verdict.Independent r.verdict;
  Alcotest.(check int) "no dirvecs" 0 (Dirvec.Set.cardinal r.dirvecs)

let test_fig5_pieces () =
  let r = Algo.run ~n_common:3 ~common_ubs:[| 8; 9; 8 |] (eq_fig5 ()) in
  Alcotest.check verdict "fig5 dependent" Verdict.Dependent r.verdict;
  Alcotest.(check int) "three separated equations" 3 (List.length r.pieces);
  (* Paper: i1 - j2 = 0; 10*j1 - 10*i2 - 10 = 0; 100*k1 - 100*k2 - 100 = 0. *)
  let constants = List.map (fun (p : Depeq.t) -> p.c0) r.pieces in
  Alcotest.(check (list int)) "piece constants" [ 0; -10; -100 ] constants

let test_fig5_trace () =
  let r = Algo.run ~n_common:3 ~common_ubs:[| 8; 9; 8 |] (eq_fig5 ()) in
  let gks =
    List.map (fun (s : Algo.step) -> Option.value s.gk ~default:(-1)) r.steps
  in
  Alcotest.(check (list int)) "suffix gcds" [ 1; 1; 10; 10; 100; 100; -1 ] gks;
  let barriers =
    List.filter_map
      (fun (s : Algo.step) -> if s.barrier then Some s.k else None)
      r.steps
  in
  Alcotest.(check (list int)) "barriers at k = 1, 3, 5, 7" [ 1; 3; 5; 7 ]
    barriers;
  (* The k = 5 barrier needs the residue -10 of -110 mod 100. *)
  let s5 = List.nth r.steps 4 in
  Alcotest.(check int) "r at k=5" (-10) s5.r

let test_fig5_distances () =
  let r = Algo.run ~n_common:3 ~common_ubs:[| 8; 9; 8 |] (eq_fig5 ()) in
  (* k-level piece: 100*k1 - 100*k2 - 100 = 0 → k2 - k1 = c0/a = -1. *)
  Alcotest.(check bool) "k-level distance -1" true
    (List.mem (3, -1) r.distances)

(* MHL91 fragment (E5): A(10i+j) = A(10(i+2)+j), i in [0,7], j in [0,9]:
   equation 10*i1 + j1 - 10*i2 - j2 - 20 = 0. *)
let eq_mhl () =
  Depeq.make (-20)
    [
      (10, Depeq.var ~side:`Src ~level:1 "i1" 7);
      (1, Depeq.var ~side:`Src ~level:2 "j1" 9);
      (-10, Depeq.var ~side:`Dst ~level:1 "i2" 7);
      (-1, Depeq.var ~side:`Dst ~level:2 "j2" 9);
    ]

let test_mhl_distance () =
  let r = Algo.run ~n_common:2 ~common_ubs:[| 7; 9 |] (eq_mhl ()) in
  Alcotest.check verdict "dependent" Verdict.Dependent r.verdict;
  Alcotest.(check (list (pair int int)))
    "distances: i2 - i1 = -2, j2 - j1 = 0"
    [ (1, -2); (2, 0) ]
    (List.sort compare r.distances)

let test_intro_loop () =
  (* D(i+1) = D(i), i in [0,8]: the write at iteration i reaches the
     read at iteration i+1, so β - α = +1. *)
  let eq =
    Depeq.make 1
      [
        (1, Depeq.var ~side:`Src ~level:1 "i1" 8);
        (-1, Depeq.var ~side:`Dst ~level:1 "i2" 8);
      ]
  in
  let r = Algo.run ~n_common:1 ~common_ubs:[| 8 |] eq in
  Alcotest.check verdict "dependent" Verdict.Dependent r.verdict;
  Alcotest.(check (list (pair int int))) "distance" [ (1, 1) ] r.distances;
  (* D(i) = D(i+5), i in [0,4]: independent. *)
  let eq2 =
    Depeq.make (-5)
      [
        (1, Depeq.var ~side:`Src ~level:1 "i1" 4);
        (-1, Depeq.var ~side:`Dst ~level:1 "i2" 4);
      ]
  in
  Alcotest.check verdict "independent" Verdict.Independent
    (Algo.run ~n_common:1 ~common_ubs:[| 4 |] eq2).verdict

let test_theorem_split () =
  let eq = Algo.sort_terms (eq1 ()) in
  (* After sorting: i1, -i2, 10j1, -10j2.  Split at m=2 with d0 = -5. *)
  Alcotest.(check bool) "condition holds" true
    (Theorem.condition eq ~m:2 ~d0:(-5));
  match Theorem.split eq ~m:2 ~d0:(-5) with
  | None -> Alcotest.fail "expected a split"
  | Some s ->
      Alcotest.(check bool) "product characterization" true
        (Theorem.product_solutions_agree eq s)

(* qcheck: on random small equations the algorithm's verdict is sound
   w.r.t. the exact solver. *)
let gen_eq =
  QCheck.Gen.(
    let* n = int_range 1 4 in
    let* c0 = int_range (-30) 30 in
    let* terms =
      flatten_l
        (List.init n (fun i ->
             let* c = oneofl [ -12; -10; -6; -4; -2; -1; 1; 2; 3; 4; 10 ] in
             let* ub = int_range 0 6 in
             let side = if i mod 2 = 0 then `Src else `Dst in
             return
               ( c,
                 Depeq.var ~side ~level:((i / 2) + 1)
                   (Printf.sprintf "z%d" i) ub )))
    in
    return (Depeq.make c0 terms))

let arb_eq = QCheck.make ~print:Depeq.to_string gen_eq

let prop_sound =
  QCheck.Test.make ~name:"algo verdict sound vs exact" ~count:500 arb_eq
    (fun eq ->
      match (Algo.test eq, Exact.solve [ eq ]) with
      | Verdict.Independent, Exact.Feasible _ -> false
      | _ -> true)

let prop_run_matches_test =
  QCheck.Test.make ~name:"run and test verdicts agree" ~count:300 arb_eq
    (fun eq ->
      let vt = Algo.test eq in
      let vr = (Algo.run ~n_common:2 ~common_ubs:[| 6; 6 |] eq).verdict in
      (* run uses the full solver on pieces, so it may be sharper than
         test, never the other way around. *)
      not (Verdict.equal vt Verdict.Independent)
      || Verdict.equal vr Verdict.Independent)

(* --- residue policies --------------------------------------------------------- *)

let policy_units =
  [
    Alcotest.test_case "all policies sound on eq(1) and fig5" `Quick (fun () ->
        List.iter
          (fun policy ->
            Alcotest.check verdict "eq1" Verdict.Independent
              (Algo.test ~policy (eq1 ()));
            Alcotest.check verdict "fig5" Verdict.Dependent
              (Algo.test ~policy (eq_fig5 ())))
          [ Algo.Nonneg; Algo.Symmetric; Algo.Optimal ]);
    Alcotest.test_case "nonneg policy misses the fig5 k=5 barrier" `Quick
      (fun () ->
        let r =
          Algo.run ~policy:Algo.Nonneg ~n_common:3 ~common_ubs:[| 8; 9; 8 |]
            (eq_fig5 ())
        in
        (* With r = 90 (the nonnegative residue of -110 mod 100) the
           j-dimension barrier condition fails, so fewer pieces split. *)
        Alcotest.(check bool) "fewer than 3 pieces" true
          (List.length r.Algo.pieces < 3));
  ]

let policy_props =
  let policies = [ Algo.Nonneg; Algo.Symmetric; Algo.Optimal ] in
  [
    QCheck.Test.make ~name:"every policy sound vs exact" ~count:400 arb_eq
      (fun eq ->
        List.for_all
          (fun policy ->
            match (Algo.test ~policy eq, Exact.solve [ eq ]) with
            | Verdict.Independent, Exact.Feasible _ -> false
            | _ -> true)
          policies);
    QCheck.Test.make ~name:"pieces multiply solution counts" ~count:200 arb_eq
      (fun eq ->
        (* When the scan completes dependent, the Cartesian-product
           theorem implies #solutions(eq) = Π #solutions(piece). *)
        let r = Algo.run ~n_common:2 ~common_ubs:[| 6; 6 |] eq in
        r.Algo.verdict <> Verdict.Dependent
        || List.length r.Algo.pieces = 0
        || Exact.count_solutions [ eq ]
           = List.fold_left
               (fun acc p -> acc * Exact.count_solutions [ p ])
               1 r.Algo.pieces);
    QCheck.Test.make ~name:"reported dirvecs cover exact directions"
      ~count:250 arb_eq
      (fun eq ->
        let n_common = 2 in
        let r = Algo.run ~n_common ~common_ubs:[| 6; 6 |] eq in
        let exact = Exact.direction_vectors ~n_common [ eq ] in
        let hier = Dirvec.Set.to_list r.Algo.dirvecs in
        List.for_all
          (fun dv -> List.exists (fun h -> Dirvec.meet h dv <> None) hier)
          (Dirvec.Set.to_list exact));
  ]

(* --- symbolic algorithm -------------------------------------------------------- *)

module Symalgo = Dlz_core.Symalgo
module Symeq = Dlz_deptest.Symeq
module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume

(* Lift a numeric equation into a symbolic one whose coefficients are
   scaled by powers of N; instantiating N must stay sound. *)
let lift_eq (eq : Depeq.t) =
  let terms =
    List.mapi
      (fun i (t : Depeq.term) ->
        let npow = Poly.pow (Poly.sym "N") (i mod 3) in
        ( Poly.scale t.Depeq.coeff npow,
          Symeq.var ~side:t.Depeq.var.Depeq.v_side
            ~level:t.Depeq.var.Depeq.v_level t.Depeq.var.Depeq.v_name
            (Poly.const t.Depeq.var.Depeq.v_ub) ))
      eq.Depeq.terms
  in
  Symeq.make (Poly.const eq.Depeq.c0) terms

let symbolic_props =
  [
    QCheck.Test.make ~name:"symbolic verdict sound for sampled N" ~count:300
      arb_eq
      (fun eq ->
        let seq = lift_eq eq in
        let env = Assume.assume_ge "N" 2 Assume.empty in
        let r = Symalgo.run ~env ~n_common:2 seq in
        r.Symalgo.verdict <> Verdict.Independent
        || List.for_all
             (fun n ->
               let neq = Symeq.instantiate (fun _ -> n) seq in
               Exact.solve [ neq ] = Exact.Infeasible)
             [ 2; 3; 5 ]);
    QCheck.Test.make ~name:"symbolic on constant equations matches numeric"
      ~count:300 arb_eq
      (fun eq ->
        (* A fully numeric Symeq must give the same verdict as the
           numeric algorithm with the same (default) policy. *)
        let seq =
          Symeq.make (Poly.const eq.Depeq.c0)
            (List.map
               (fun (t : Depeq.term) ->
                 ( Poly.const t.Depeq.coeff,
                   Symeq.var ~side:t.Depeq.var.Depeq.v_side
                     ~level:t.Depeq.var.Depeq.v_level t.Depeq.var.Depeq.v_name
                     (Poly.const t.Depeq.var.Depeq.v_ub) ))
               eq.Depeq.terms)
        in
        let rs = Symalgo.run ~env:Assume.empty ~n_common:2 seq in
        let rn = Algo.run ~n_common:2 ~common_ubs:[| 7; 7 |] eq in
        (* The symbolic side may be less precise, never more. *)
        rs.Symalgo.verdict <> Verdict.Independent
        || rn.Algo.verdict = Verdict.Independent
        || Exact.solve [ eq ] = Exact.Infeasible);
    QCheck.Test.make ~name:"symbolic distances check out numerically"
      ~count:200 arb_eq
      (fun eq ->
        let seq = lift_eq eq in
        let env = Assume.assume_ge "N" 2 Assume.empty in
        let r = Symalgo.run ~env ~n_common:2 seq in
        r.Symalgo.verdict = Verdict.Independent
        || List.for_all
             (fun (lvl, d) ->
               List.for_all
                 (fun n ->
                   let neq = Symeq.instantiate (fun _ -> n) seq in
                   let dn = Poly.eval (fun _ -> n) d in
                   match Exact.distance_set ~level:lvl [ neq ] with
                   | Some ds -> List.for_all (fun x -> x = dn) ds
                   | None -> true)
                 [ 2; 3 ])
             r.Symalgo.distances);
  ]

(* Direct theorem property: every split whose condition holds yields the
   Cartesian-product characterization (brute force). *)
let theorem_props =
  [
    QCheck.Test.make ~name:"condition implies product property" ~count:250
      (QCheck.pair arb_eq (QCheck.int_range 1 3))
      (fun (eq, m) ->
        let eq = Algo.sort_terms eq in
        QCheck.assume (m < Depeq.nvars eq);
        (* Try the least-magnitude residue split of c0 w.r.t. the suffix
           gcd, like the algorithm does. *)
        let suffix =
          List.filteri (fun i _ -> i >= m) eq.Depeq.terms
          |> List.map (fun (t : Depeq.term) -> t.Depeq.coeff)
        in
        let g = Dlz_base.Numth.gcd_list suffix in
        QCheck.assume (g > 0);
        let d0 = Dlz_base.Numth.symmetric_mod eq.Depeq.c0 g in
        match Theorem.split eq ~m ~d0 with
        | None -> true (* condition did not hold: nothing to check *)
        | Some s -> Theorem.product_solutions_agree eq s);
  ]

(* Symbolic distance extraction with a symbolic value. *)
let symbolic_units =
  [
    Alcotest.test_case "symbolic distance -N" `Quick (fun () ->
        (* N*x1 - N*x2 - N^2 = 0 with x in [0, 2N]: x2 - x1 = -N. *)
        let n = Poly.sym "N" in
        let ub = Poly.scale 2 n in
        let eq =
          Symeq.make
            (Poly.neg (Poly.mul n n))
            [
              (n, Symeq.var ~side:`Src ~level:1 "x1" ub);
              (Poly.neg n, Symeq.var ~side:`Dst ~level:1 "x2" ub);
            ]
        in
        let env = Assume.assume_ge "N" 2 Assume.empty in
        let r = Symalgo.run ~env ~n_common:1 eq in
        Alcotest.check verdict "dependent" Verdict.Dependent r.Symalgo.verdict;
        (match r.Symalgo.distances with
        | [ (1, d) ] ->
            Alcotest.(check string) "distance -N" "-N" (Poly.to_string d)
        | _ -> Alcotest.fail "expected one symbolic distance");
        match Dirvec.Set.to_list r.Symalgo.dirvecs with
        | [ dv ] -> Alcotest.(check string) "(>)" "(>)" (Dirvec.to_string dv)
        | _ -> Alcotest.fail "expected one direction");
    Alcotest.test_case "symbolic infeasible distance refuted" `Quick
      (fun () ->
        (* N*x1 - N*x2 - 3*N^2 = 0 with x in [0, 2N]: delta -3N is out of
           the trip range, so independent. *)
        let n = Poly.sym "N" in
        let ub = Poly.scale 2 n in
        let eq =
          Symeq.make
            (Poly.neg (Poly.scale 3 (Poly.mul n n)))
            [
              (n, Symeq.var ~side:`Src ~level:1 "x1" ub);
              (Poly.neg n, Symeq.var ~side:`Dst ~level:1 "x2" ub);
            ]
        in
        let env = Assume.assume_ge "N" 1 Assume.empty in
        let r = Symalgo.run ~env ~n_common:1 eq in
        Alcotest.check verdict "independent" Verdict.Independent
          r.Symalgo.verdict);
  ]

(* Reshape negative cases. *)
let reshape_units =
  let parse src = Dlz_frontend.F77_parser.parse src in
  let prepare src = Dlz_passes.Pipeline.prepare_program (parse src) in
  [
    Alcotest.test_case "out-of-range index blocks the plan" `Quick (fun () ->
        (* C(i + 10*j + 7) with i in [0,4]: index i+7 exceeds extent 10
           only when i > 2 — here i max 4 gives 11 > 9: no reshape. *)
        let prog =
          prepare
            "      REAL C(0:99)\n\
            \      DO 1 I = 0, 4\n\
            \      DO 1 J = 0, 8\n\
             1     C(I+10*J+7) = 0\n\
            \      END\n"
        in
        let _, plans =
          Dlz_core.Reshape.apply ~env:Dlz_symbolic.Assume.empty prog
        in
        Alcotest.(check int) "no plans" 0 (List.length plans));
    Alcotest.test_case "in-range shifted index reshapes" `Quick (fun () ->
        let prog =
          prepare
            "      REAL C(0:99)\n\
            \      DO 1 I = 0, 2\n\
            \      DO 1 J = 0, 8\n\
             1     C(I+10*J+7) = 0\n\
            \      END\n"
        in
        let prog', plans =
          Dlz_core.Reshape.apply ~env:Dlz_symbolic.Assume.empty prog
        in
        Alcotest.(check int) "one plan" 1 (List.length plans);
        let text = Dlz_ir.Ast.to_string prog' in
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          m = 0 || go 0
        in
        Alcotest.(check bool) "C(7+I,J)" true (contains text "C(7+I,J)"));
    Alcotest.test_case "multi-variable dimensions reshape" `Quick (fun () ->
        (* C((I+J) + 10*K): dimension 1 holds the coupled index I+J. *)
        let prog =
          prepare
            "      REAL C(0:99)\n\
            \      DO 1 I = 0, 4\n\
            \      DO 1 J = 0, 4\n\
            \      DO 1 K = 0, 9\n\
             1     C(I+J+10*K) = 0\n\
            \      END\n"
        in
        let prog', plans =
          Dlz_core.Reshape.apply ~env:Dlz_symbolic.Assume.empty prog
        in
        Alcotest.(check int) "one plan" 1 (List.length plans);
        let text = Dlz_ir.Ast.to_string prog' in
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          m = 0 || go 0
        in
        Alcotest.(check bool) "C(I+J,K)" true (contains text "C(I+J,K)"));
    Alcotest.test_case "mixed-stride refs block the plan" `Quick (fun () ->
        (* One ref with stride 10, one with stride 7: inconsistent. *)
        let prog =
          prepare
            "      REAL C(0:99)\n\
            \      DO 1 I = 0, 4\n\
            \      DO 1 J = 0, 8\n\
             1     C(I+10*J) = C(I+7*J)\n\
            \      END\n"
        in
        let _, plans =
          Dlz_core.Reshape.apply ~env:Dlz_symbolic.Assume.empty prog
        in
        Alcotest.(check int) "no plans" 0 (List.length plans));
  ]

(* Summarization rules from paper section 2. *)
module An = Dlz_engine.Analyze

let summarize_units =
  [
    Alcotest.test_case "(<,=) and (=,<) must NOT merge to (<,<)" `Quick
      (fun () ->
        (* Paper: "(<,=) and (=,<) dependence should not be replaced with
           a (<,<) dependence because this dependence have decompositions
           that are not present in the original pair". *)
        let v1 = [| Dirvec.Lt; Dirvec.Eq |] in
        let v2 = [| Dirvec.Eq; Dirvec.Lt |] in
        let out = An.summarize ~self:false [ v1; v2 ] in
        Alcotest.(check int) "stays two rows" 2 (List.length out);
        Alcotest.(check bool) "originals kept" true
          (List.exists (Dirvec.equal v1) out
          && List.exists (Dirvec.equal v2) out));
    Alcotest.test_case "(<) plus (=) is (<=), (<)+(=)+(>) is (*)" `Quick
      (fun () ->
        let out =
          An.summarize ~self:false [ [| Dirvec.Lt |]; [| Dirvec.Eq |] ]
        in
        (match out with
        | [ v ] -> Alcotest.(check string) "(<=)" "(<=)" (Dirvec.to_string v)
        | _ -> Alcotest.fail "expected one row");
        let out3 =
          An.summarize ~self:false
            [ [| Dirvec.Lt |]; [| Dirvec.Eq |]; [| Dirvec.Gt |] ]
        in
        match out3 with
        | [ v ] -> Alcotest.(check string) "(*)" "(*)" (Dirvec.to_string v)
        | _ -> Alcotest.fail "expected one row");
    Alcotest.test_case "(>) plus (<) is (!=)" `Quick (fun () ->
        match An.summarize ~self:false [ [| Dirvec.Gt |]; [| Dirvec.Lt |] ] with
        | [ v ] -> Alcotest.(check string) "(!=)" "(!=)" (Dirvec.to_string v)
        | _ -> Alcotest.fail "expected one row");
    Alcotest.test_case "(<) and (*) stay two rows" `Quick (fun () ->
        (* Only basic members cover: ( * ) itself admits (=) and (>),
           which no member is, so the join (the same ( * )) is not
           covered. *)
        let out =
          An.summarize ~self:false [ [| Dirvec.Lt |]; [| Dirvec.Star |] ]
        in
        Alcotest.(check (list string)) "both rows" [ "(<)"; "(*)" ]
          (List.map Dirvec.to_string out));
  ]

(* The list algorithm [An.summarize] replaced, kept as its reference:
   a join is covered when each basic vector of its decomposition is a
   member of the input (or, for a self pair, the identity). *)
let reference_summarize ~self vecs =
  let decomposition dv =
    Array.fold_right
      (fun d acc ->
        List.concat_map
          (fun child -> List.map (fun tail -> child :: tail) acc)
          (Dirvec.refinements d))
      dv [ [] ]
    |> List.map Array.of_list
  in
  let join = Array.map2 Dirvec.join_dir in
  let covered dv =
    List.for_all
      (fun basic ->
        List.exists (Dirvec.equal basic) vecs
        || (self && Array.for_all (( = ) Dirvec.Eq) basic))
      (decomposition dv)
  in
  let rec merge groups =
    let rec try_pairs = function
      | [] -> None
      | g :: rest -> (
          match List.find_opt (fun h -> covered (join g h)) rest with
          | Some h ->
              Some
                (join g h
                :: List.filter (fun x -> not (Dirvec.equal x h)) rest)
          | None -> Option.map (fun rest' -> g :: rest') (try_pairs rest))
    in
    match try_pairs groups with Some g' -> merge g' | None -> groups
  in
  merge (List.sort_uniq Dirvec.compare vecs)

(* Random sets over 0-5 levels and over 22 (two ints a vector), with
   non-basic members, duplicates and self pairs.  At 22 levels one to
   four levels vary and the rest hold one basic direction throughout,
   which keeps the reference's decompositions small. *)
let gen_summarize_case =
  QCheck.Gen.(
    let* n = oneofl [ 0; 1; 2; 3; 4; 5; 22 ] in
    let* varying =
      if n <= 5 then return (List.init n Fun.id)
      else
        let* count = int_range 1 4 in
        let* picks = list_repeat count (int_range 0 (n - 1)) in
        return (List.sort_uniq compare (n - 1 :: picks))
    in
    let* fixed = array_repeat n (oneofl Dirvec.[ Lt; Eq; Eq; Gt ]) in
    let dir =
      frequency
        [ (6, oneofl Dirvec.[ Lt; Eq; Gt ]);
          (1, oneofl Dirvec.[ Le; Ge; Ne; Star ]) ]
    in
    let vec =
      let+ dirs = flatten_l (List.map (fun _ -> dir) varying) in
      let v = Array.copy fixed in
      List.iter2 (fun l d -> v.(l) <- d) varying dirs;
      v
    in
    let* vecs = list_size (int_range 0 9) vec in
    let* dups = list_size (int_range 0 2) (oneofl (fixed :: vecs)) in
    let* self = bool in
    return (self, vecs @ dups))

let summarize_props =
  [
    QCheck.Test.make ~name:"packed summarize = list reference" ~count:12_000
      (QCheck.make
         ~print:(fun (self, vecs) ->
           Printf.sprintf "self=%b [%s]" self
             (String.concat "; " (List.map Dirvec.to_string vecs)))
         gen_summarize_case)
      (fun (self, vecs) ->
        List.map Dirvec.to_string (An.summarize ~self vecs)
        = List.map Dirvec.to_string (reference_summarize ~self vecs));
  ]

(* Overflow robustness: gigantic strides must degrade conservatively
   rather than crash. *)
let overflow_units =
  [
    Alcotest.test_case "huge strides degrade to all-star" `Quick (fun () ->
        let giant = max_int / 2 in
        let prog =
          Dlz_passes.Pipeline.prepare_program
            (Dlz_frontend.F77_parser.parse
               (Printf.sprintf
                  "      REAL W(0:99)\n\
                  \      DO 1 I = 0, 9\n\
                   1     W(%d*I) = W(%d*I) + 1\n\
                  \      END\n"
                  giant giant))
        in
        (* Must not raise; verdict may be conservative. *)
        ignore (Dlz_engine.Analyze.deps_of_program prog));
  ]

let () =
  Alcotest.run "dlz_core"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "eq(1) independent" `Quick test_eq1_independent;
          Alcotest.test_case "eq(1) run" `Quick test_eq1_run;
          Alcotest.test_case "fig5 pieces" `Quick test_fig5_pieces;
          Alcotest.test_case "fig5 trace" `Quick test_fig5_trace;
          Alcotest.test_case "fig5 distances" `Quick test_fig5_distances;
          Alcotest.test_case "mhl distance (2,0)" `Quick test_mhl_distance;
          Alcotest.test_case "intro loop" `Quick test_intro_loop;
          Alcotest.test_case "theorem split" `Quick test_theorem_split;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sound; prop_run_matches_test ] );
      ("policies", policy_units);
      ("policy-props", List.map QCheck_alcotest.to_alcotest policy_props);
      ("symbolic-props", List.map QCheck_alcotest.to_alcotest symbolic_props);
      ("theorem-props", List.map QCheck_alcotest.to_alcotest theorem_props);
      ("symbolic", symbolic_units);
      ("reshape", reshape_units);
      ("overflow", overflow_units);
      ( "summarize",
        summarize_units @ List.map QCheck_alcotest.to_alcotest summarize_props
      );
    ]
