(* Tests for dlz_deptest: the direction-vector lattice, every classic
   dependence test (soundness against the exact solver), Fourier-Motzkin
   with and without tightening, and the hierarchy driver. *)

open Dlz_deptest
module Ivl = Dlz_base.Ivl
module Prng = Dlz_base.Prng
module Poly = Dlz_symbolic.Poly

let verdict = Alcotest.testable Verdict.pp Verdict.equal

let var ?(side = `Src) ?(level = 0) name ub = Depeq.var ~side ~level name ub

(* Paper equation (1). *)
let eq1 () =
  Depeq.make (-5)
    [
      (1, var ~side:`Src ~level:1 "i1" 4);
      (10, var ~side:`Src ~level:2 "j1" 9);
      (-1, var ~side:`Dst ~level:1 "i2" 4);
      (-10, var ~side:`Dst ~level:2 "j2" 9);
    ]

(* --- Depeq -------------------------------------------------------------- *)

let depeq_units =
  [
    Alcotest.test_case "make merges and drops zeros" `Quick (fun () ->
        let v1 = var ~level:1 "x" 5 in
        let eq = Depeq.make 3 [ (2, v1); (3, v1); (0, var ~level:2 "y" 5) ] in
        Alcotest.(check int) "one term" 1 (Depeq.nvars eq);
        Alcotest.(check (list int)) "merged coeff" [ 5 ] (Depeq.coeffs eq));
    Alcotest.test_case "negative bound rejected" `Quick (fun () ->
        match Depeq.make 0 [ (1, var "x" (-1)) ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "pp prints min_int" `Quick (fun () ->
        (* [Intx.abs] has no [min_int]: the digits come off the value. *)
        let eq =
          Depeq.make min_int
            [ (min_int, var "x" 3); (1, var ~level:2 "y" 4);
              (-2, var ~level:3 "z" 1) ]
        in
        Alcotest.(check string) "text"
          "- 4611686018427387904*x + y - 2*z - 4611686018427387904 = 0 ; \
           x in [0,3], y in [0,4], z in [0,1]"
          (Depeq.to_string eq));
    Alcotest.test_case "lhs_interval" `Quick (fun () ->
        let eq = Depeq.make (-5) [ (2, var "x" 3); (-1, var ~level:2 "y" 4) ] in
        Alcotest.(check bool) "[-9, 1]" true
          (Ivl.equal (Ivl.make (-9) 1) (Banerjee.interval eq)));
    Alcotest.test_case "assignments enumerates the box" `Quick (fun () ->
        let eq = Depeq.make 0 [ (1, var "x" 2); (1, var ~level:2 "y" 1) ] in
        Alcotest.(check int) "3*2 points" 6
          (List.length (List.of_seq (Depeq.assignments eq))));
    Alcotest.test_case "common_pairs" `Quick (fun () ->
        let eq =
          Depeq.make 0
            [ (-1, var ~side:`Dst ~level:1 "i2" 4); (7, var "x" 3);
              (1, var ~side:`Src ~level:1 "i1" 4);
              (10, var ~side:`Src ~level:2 "j1" 9);
              (-10, var ~side:`Dst ~level:3 "k2" 2) ]
        in
        let steps =
          Depeq.fold_levels eq []
            ~free:(fun acc c ub -> Printf.sprintf "free %d %d" c ub :: acc)
            ~pair:(fun acc l a ub_a b ub_b ->
              Printf.sprintf "pair %d %d %d %d %d" l a ub_a b ub_b :: acc)
            ~sink:(fun acc l b -> Printf.sprintf "sink %d %d" l b :: acc)
        in
        Alcotest.(check (list string)) "steps in term order"
          [ "sink 1 -1"; "free 7 3"; "pair 1 1 4 -1 4";
            Printf.sprintf "pair 2 10 9 0 %d" max_int;
            Printf.sprintf "pair 3 0 %d -10 2" max_int; "sink 3 -10" ]
          (List.rev steps));
  ]

(* --- Dirvec lattice ------------------------------------------------------- *)

let all_dirs = Dirvec.[ Lt; Eq; Gt; Le; Ge; Ne; Star ]

let dirvec_units =
  [
    Alcotest.test_case "meet basics" `Quick (fun () ->
        Alcotest.(check bool) "< meet <= is <" true
          (Dirvec.meet_dir Dirvec.Lt Dirvec.Le = Some Dirvec.Lt);
        Alcotest.(check bool) "< meet > empty" true
          (Dirvec.meet_dir Dirvec.Lt Dirvec.Gt = None);
        Alcotest.(check bool) "<= meet >= is =" true
          (Dirvec.meet_dir Dirvec.Le Dirvec.Ge = Some Dirvec.Eq));
    Alcotest.test_case "join basics" `Quick (fun () ->
        Alcotest.(check bool) "< join = is <=" true
          (Dirvec.join_dir Dirvec.Lt Dirvec.Eq = Dirvec.Le);
        Alcotest.(check bool) "< join > is !=" true
          (Dirvec.join_dir Dirvec.Lt Dirvec.Gt = Dirvec.Ne);
        Alcotest.(check bool) "<= join >= is *" true
          (Dirvec.join_dir Dirvec.Le Dirvec.Ge = Dirvec.Star));
    Alcotest.test_case "refinements" `Quick (fun () ->
        Alcotest.(check int) "* has 3" 3 (List.length (Dirvec.refinements Dirvec.Star));
        Alcotest.(check int) "<= has 2" 2 (List.length (Dirvec.refinements Dirvec.Le));
        Alcotest.(check int) "< has 1" 1 (List.length (Dirvec.refinements Dirvec.Lt)));
    Alcotest.test_case "vector meet length mixing" `Quick (fun () ->
        let a = [| Dirvec.Lt |] and b = [| Dirvec.Star; Dirvec.Eq |] in
        match Dirvec.meet a b with
        | Some m ->
            Alcotest.(check int) "length 2" 2 (Array.length m);
            Alcotest.(check bool) "kept tail" true (m.(1) = Dirvec.Eq)
        | None -> Alcotest.fail "expected a meet");
    Alcotest.test_case "plausible / reverse" `Quick (fun () ->
        Alcotest.(check bool) "(<,>) plausible" true
          (Dirvec.plausible [| Dirvec.Lt; Dirvec.Gt |]);
        Alcotest.(check bool) "(=,>) not plausible" false
          (Dirvec.plausible [| Dirvec.Eq; Dirvec.Gt |]);
        Alcotest.(check bool) "(=,=) plausible" true
          (Dirvec.plausible [| Dirvec.Eq; Dirvec.Eq |]);
        Alcotest.(check string) "reverse" "(>, =, <)"
          (Dirvec.to_string (Dirvec.reverse [| Dirvec.Lt; Dirvec.Eq; Dirvec.Gt |])));
    Alcotest.test_case "to_string" `Quick (fun () ->
        Alcotest.(check string) "mixed" "(*, <=, !=)"
          (Dirvec.to_string [| Dirvec.Star; Dirvec.Le; Dirvec.Ne |]));
  ]

let dirvec_props =
  let arb_dir = QCheck.oneofl all_dirs in
  [
    QCheck.Test.make ~name:"meet is intersection of admits" ~count:500
      (QCheck.triple arb_dir arb_dir (QCheck.int_range (-3) 3))
      (fun (a, b, d) ->
        let admits_meet =
          match Dirvec.meet_dir a b with
          | Some m -> Dirvec.admits m d
          | None -> false
        in
        admits_meet = (Dirvec.admits a d && Dirvec.admits b d));
    QCheck.Test.make ~name:"join is union of admits" ~count:500
      (QCheck.triple arb_dir arb_dir (QCheck.int_range (-3) 3))
      (fun (a, b, d) ->
        Dirvec.admits (Dirvec.join_dir a b) d
        = (Dirvec.admits a d || Dirvec.admits b d));
    QCheck.Test.make ~name:"refinements partition basic cases" ~count:100
      arb_dir (fun d ->
        let refs = Dirvec.refinements d in
        List.for_all Dirvec.is_basic refs
        && List.for_all (fun r -> Dirvec.leq_dir r d) refs);
    QCheck.Test.make ~name:"of_delta admitted by d iff admits" ~count:200
      (QCheck.pair arb_dir (QCheck.int_range (-3) 3)) (fun (d, delta) ->
        Dirvec.admits d delta
        = (Dirvec.meet_dir (Dirvec.of_delta delta) d <> None));
  ]

(* --- random equations and soundness --------------------------------------- *)

let gen_eq =
  QCheck.Gen.(
    let* n = int_range 0 5 in
    let* c0 = int_range (-40) 40 in
    let* terms =
      flatten_l
        (List.init n (fun i ->
             let* c = oneofl [ -15; -10; -6; -5; -3; -2; -1; 1; 2; 3; 5; 10; 12 ] in
             let* ub = int_range 0 7 in
             let side = if i mod 2 = 0 then `Src else `Dst in
             return (c, var ~side ~level:((i / 2) + 1) (Printf.sprintf "z%d" i) ub)))
    in
    return (Depeq.make c0 terms))

let arb_eq = QCheck.make ~print:Depeq.to_string gen_eq

let sound name test =
  QCheck.Test.make ~name:(name ^ " sound vs exact") ~count:800 arb_eq
    (fun eq ->
      match (Verdict.conservative (test eq), Exact.solve [ eq ]) with
      | Verdict.Independent, Exact.Feasible _ -> false
      | _ -> true)

let soundness_props =
  [
    sound "gcd" (Gcd_test.test ?dirs:None);
    sound "banerjee" (Banerjee.test ?dirs:None);
    sound "svpc" Svpc.test;
    sound "acyclic" Acyclic.test;
    sound "residue" Residue.test;
    sound "fm-real" (Fm.test Fm.Real);
    sound "fm-tightened" (Fm.test Fm.Tightened);
  ]

(* --- exactness on the tests' home turf ------------------------------------- *)

let exactness_props =
  [
    (* SVPC is exact on <=1-variable equations. *)
    QCheck.Test.make ~name:"svpc exact on single variable" ~count:500
      (QCheck.triple (QCheck.int_range (-30) 30)
         (QCheck.int_range (-8) 8) (QCheck.int_range 0 9))
      (fun (c0, c, ub) ->
        QCheck.assume (c <> 0);
        let eq = Depeq.make c0 [ (c, var "z" ub) ] in
        let expected =
          if Exact.solve [ eq ] = Exact.Infeasible then Verdict.Independent
          else Verdict.Dependent
        in
        Verdict.equal (Svpc.test eq) expected);
    (* Banerjee is exact (for real solutions) on each interval endpoint:
       if it says dependent, the real interval contains 0. *)
    QCheck.Test.make ~name:"banerjee interval contains all LHS values"
      ~count:500 arb_eq (fun eq ->
        let iv = Banerjee.interval eq in
        Seq.for_all
          (fun asg -> Ivl.mem (Depeq.eval eq asg) iv)
          (Seq.take 200 (Depeq.assignments eq)));
    (* Residue test is exact on pure difference equations. *)
    QCheck.Test.make ~name:"residue exact on differences" ~count:500
      (QCheck.quad (QCheck.int_range (-12) 12) (QCheck.int_range 0 8)
         (QCheck.int_range 0 8) QCheck.bool)
      (fun (d, ub1, ub2, flip) ->
        let c1, c2 = if flip then (-1, 1) else (1, -1) in
        let eq =
          Depeq.make d
            [ (c1, var ~level:1 "x" ub1); (c2, var ~side:`Dst ~level:1 "y" ub2) ]
        in
        let expected =
          if Exact.solve [ eq ] = Exact.Infeasible then Verdict.Independent
          else Verdict.Dependent
        in
        Verdict.equal (Residue.test eq) expected);
    (* Real FM never reports infeasible when an integer point exists, and
       is exact on rational feasibility: if it says infeasible then the
       exact solver agrees. *)
    QCheck.Test.make ~name:"fm-real infeasible implies exact infeasible"
      ~count:500 arb_eq (fun eq ->
        Fm.test Fm.Real eq <> Verdict.Independent
        || Exact.solve [ eq ] = Exact.Infeasible);
  ]

(* --- direction-constrained tests ------------------------------------------- *)

let dirs_units =
  [
    Alcotest.test_case "banerjee with '=' proves D(i)=D(i+5) indep at =" `Quick
      (fun () ->
        let eq =
          Depeq.make (-5)
            [
              (1, var ~side:`Src ~level:1 "i1" 9);
              (-1, var ~side:`Dst ~level:1 "i2" 9);
            ]
        in
        let dirs _ = Dirvec.Eq in
        Alcotest.check verdict "= infeasible" Verdict.Independent
          (Banerjee.test ~dirs eq);
        (* i1 = i2 + 5 means the sink iteration is 5 below the source:
           feasible only under '>'. *)
        let dirs _ = Dirvec.Gt in
        Alcotest.check verdict "> feasible" Verdict.Dependent
          (Banerjee.test ~dirs eq);
        let dirs _ = Dirvec.Lt in
        Alcotest.check verdict "< infeasible" Verdict.Independent
          (Banerjee.test ~dirs eq));
    Alcotest.test_case "gcd with '=' merges coefficients" `Quick (fun () ->
        (* 2*a - 2*b = 1 is infeasible; with '=', coefficient collapses
           to 0 and gcd 0 does not divide 1. *)
        let eq =
          Depeq.make 1
            [
              (2, var ~side:`Src ~level:1 "a" 9);
              (-2, var ~side:`Dst ~level:1 "b" 9);
            ]
        in
        Alcotest.check verdict "plain gcd: indep (2 does not divide 1)"
          Verdict.Independent (Gcd_test.test eq);
        let eq2 =
          Depeq.make 2
            [
              (3, var ~side:`Src ~level:1 "a" 9);
              (-3, var ~side:`Dst ~level:1 "b" 9);
            ]
        in
        Alcotest.check verdict "3x-3y=−2 indep under =" Verdict.Independent
          (Gcd_test.test ~dirs:(fun _ -> Dirvec.Eq) eq2));
    Alcotest.test_case "direction feasibility in tiny loops" `Quick (fun () ->
        Alcotest.(check bool) "< infeasible with ub 0" false
          (Hierarchy.feasible_dir ~ub:0 Dirvec.Lt);
        Alcotest.(check bool) "= feasible with ub 0" true
          (Hierarchy.feasible_dir ~ub:0 Dirvec.Eq));
  ]

(* Banerjee-with-direction soundness: under each basic direction the
   interval covers every actual LHS value of solutions satisfying it.
   Levels must have both instances present, otherwise the direction also
   constrains a variable absent from the assignment. *)
let gen_paired_eq =
  QCheck.Gen.(
    let* n = int_range 1 3 in
    let* c0 = int_range (-40) 40 in
    let* terms =
      flatten_l
        (List.init n (fun lvl ->
             let* ca = oneofl [ -10; -5; -2; -1; 1; 2; 5; 10 ] in
             let* cb = oneofl [ -10; -5; -2; -1; 1; 2; 5; 10 ] in
             let* ua = int_range 0 7 in
             let* ub = int_range 0 7 in
             return
               [
                 (ca, var ~side:`Src ~level:(lvl + 1)
                        (Printf.sprintf "a%d" lvl) ua);
                 (cb, var ~side:`Dst ~level:(lvl + 1)
                        (Printf.sprintf "b%d" lvl) ub);
               ]))
    in
    return (Depeq.make c0 (List.concat terms)))

let arb_paired_eq = QCheck.make ~print:Depeq.to_string gen_paired_eq

let dirs_props =
  [
    QCheck.Test.make ~name:"banerjee directional interval sound" ~count:400
      (QCheck.pair arb_paired_eq (QCheck.oneofl Dirvec.[ Lt; Eq; Gt ]))
      (fun (eq, d) ->
        let dirs _ = d in
        let iv = Banerjee.interval ~dirs eq in
        let ok asg =
          (* does the assignment satisfy the direction at every level? *)
          let levels =
            List.sort_uniq compare
              (List.filter_map
                 (fun ((v : Depeq.var), _) ->
                   if v.Depeq.v_level > 0 then Some v.Depeq.v_level else None)
                 asg)
          in
          List.for_all
            (fun lvl ->
              let find side =
                List.find_map
                  (fun ((v : Depeq.var), x) ->
                    if v.Depeq.v_level = lvl && v.Depeq.v_side = side then
                      Some x
                    else None)
                  asg
              in
              match (find `Src, find `Dst) with
              | Some a, Some b -> Dirvec.admits d (b - a)
              | _ -> true)
            levels
        in
        Seq.for_all
          (fun asg -> (not (ok asg)) || Ivl.mem (Depeq.eval eq asg) iv)
          (Seq.take 300 (Depeq.assignments eq)));
  ]

(* --- Fourier-Motzkin specifics ---------------------------------------------- *)

let fm_units =
  [
    Alcotest.test_case "eq(1): real dependent, tightened independent" `Quick
      (fun () ->
        Alcotest.check verdict "real" Verdict.Dependent (Fm.test Fm.Real (eq1 ()));
        Alcotest.check verdict "tightened" Verdict.Independent
          (Fm.test Fm.Tightened (eq1 ())));
    Alcotest.test_case "empty system feasible" `Quick (fun () ->
        Alcotest.(check bool) "feasible" true (Fm.feasible Fm.Real ~nvars:0 []));
    Alcotest.test_case "contradictory constants" `Quick (fun () ->
        Alcotest.(check bool) "infeasible" false
          (Fm.feasible Fm.Real ~nvars:1
             [
               { Fm.cs = [| 1 |]; bound = 3 };
               { Fm.cs = [| -1 |]; bound = -5 };
             ]));
    Alcotest.test_case "eliminations counts work" `Quick (fun () ->
        let nvars, rows = Fm.system_of_equation (eq1 ()) in
        Alcotest.(check bool) "positive" true
          (Fm.eliminations Fm.Real ~nvars rows > 0));
  ]

let fm_props =
  [
    (* Tightening never loses integer solutions. *)
    QCheck.Test.make ~name:"tightened FM sound for integers" ~count:600 arb_eq
      (fun eq ->
        match (Fm.test Fm.Tightened eq, Exact.solve [ eq ]) with
        | Verdict.Independent, Exact.Feasible _ -> false
        | _ -> true);
    (* Real FM is at least as conservative as tightened FM. *)
    QCheck.Test.make ~name:"tightened at least as sharp as real" ~count:400
      arb_eq (fun eq ->
        not
          (Fm.test Fm.Real eq = Verdict.Independent
          && Fm.test Fm.Tightened eq = Verdict.Dependent));
  ]

(* --- exact solver ------------------------------------------------------------- *)

let exact_units =
  [
    Alcotest.test_case "finds witness" `Quick (fun () ->
        let eq = Depeq.make (-7) [ (2, var "x" 5); (1, var ~level:2 "y" 5) ] in
        match Exact.solve [ eq ] with
        | Exact.Feasible asg ->
            Alcotest.(check int) "witness satisfies" 0 (Depeq.eval eq asg)
        | _ -> Alcotest.fail "expected feasible");
    Alcotest.test_case "systems conjoin" `Quick (fun () ->
        let x = var "x" 9 in
        let eq_a = Depeq.make (-4) [ (1, x) ] in
        let eq_b = Depeq.make (-5) [ (1, x) ] in
        Alcotest.(check bool) "x=4 and x=5 infeasible" true
          (Exact.solve [ eq_a; eq_b ] = Exact.Infeasible);
        Alcotest.(check bool) "each alone feasible" true
          (Exact.solve [ eq_a ] <> Exact.Infeasible));
    Alcotest.test_case "budget produces Unknown" `Quick (fun () ->
        let eq =
          Depeq.make (-1)
            [ (3, var "x" 1000); (-3, var ~side:`Dst "y" 1000) ]
        in
        (* gcd prune kills it instantly, so use a tiny budget on a
           feasible problem instead. *)
        let eq2 =
          Depeq.make 0
            (List.init 6 (fun i ->
                 ((if i mod 2 = 0 then 1 else -1),
                  var ~level:(i + 1) (Printf.sprintf "v%d" i) 30)))
        in
        ignore eq;
        match Exact.solve ~max_nodes:2 [ eq2 ] with
        | Exact.Unknown -> ()
        | Exact.Feasible _ -> ()
        | Exact.Infeasible -> Alcotest.fail "cannot be infeasible");
    Alcotest.test_case "count_solutions brute force" `Quick (fun () ->
        (* x + y = 3, x,y in [0,3]: 4 solutions. *)
        let eq =
          Depeq.make (-3) [ (1, var "x" 3); (1, var ~level:2 "y" 3) ]
        in
        Alcotest.(check int) "4 points" 4 (Exact.count_solutions [ eq ]));
    Alcotest.test_case "direction_vectors exact" `Quick (fun () ->
        (* i1 - i2 - 1 = 0 on [0,3]: only '<'. *)
        let eq =
          Depeq.make 1
            [
              (1, var ~side:`Src ~level:1 "i1" 3);
              (-1, var ~side:`Dst ~level:1 "i2" 3);
            ]
        in
        let dvs = Exact.direction_vectors ~n_common:1 [ eq ] in
        match Dirvec.Set.to_list dvs with
        | [ dv ] -> Alcotest.(check string) "(<)" "(<)" (Dirvec.to_string dv)
        | _ -> Alcotest.fail "expected exactly one vector");
    Alcotest.test_case "distance_set" `Quick (fun () ->
        let eq =
          Depeq.make 2
            [
              (1, var ~side:`Src ~level:1 "i1" 5);
              (-1, var ~side:`Dst ~level:1 "i2" 5);
            ]
        in
        Alcotest.(check (option (list int))) "{+2}" (Some [ 2 ])
          (Exact.distance_set ~level:1 [ eq ]));
  ]

let exact_props =
  [
    (* Brute force agreement on tiny boxes. *)
    QCheck.Test.make ~name:"exact agrees with brute force" ~count:300
      (QCheck.make ~print:Depeq.to_string
         QCheck.Gen.(
           let* n = int_range 1 3 in
           let* c0 = int_range (-15) 15 in
           let* terms =
             flatten_l
               (List.init n (fun i ->
                    let* c = int_range (-5) 5 in
                    let* ub = int_range 0 4 in
                    return (c, var ~level:(i + 1) (Printf.sprintf "w%d" i) ub)))
           in
           return (Depeq.make c0 terms)))
      (fun eq ->
        let brute =
          Seq.exists (Depeq.holds eq) (Depeq.assignments eq)
        in
        (Exact.solve [ eq ] <> Exact.Infeasible) = brute);
  ]

(* --- hierarchy -------------------------------------------------------------- *)

let hierarchy_units =
  [
    Alcotest.test_case "directions of the serial loop" `Quick (fun () ->
        (* D(i+1) = D(i): i1 + 1 = i2, only '<' survives. *)
        let eq =
          Depeq.make 1
            [
              (1, var ~side:`Src ~level:1 "i1" 8);
              (-1, var ~side:`Dst ~level:1 "i2" 8);
            ]
        in
        let p =
          Problem.numeric_of_equations ~n_common:1 ~common_ubs:[| 8 |] [ eq ]
        in
        match Dirvec.Set.to_list (Hierarchy.directions p) with
        | [ dv ] -> Alcotest.(check string) "(<)" "(<)" (Dirvec.to_string dv)
        | l -> Alcotest.failf "expected one vector, got %d" (List.length l));
    Alcotest.test_case "coupled subscripts intersect" `Quick (fun () ->
        (* A(i,i) vs A(j, j+1) style: eq1: i1 - i2 = 0; eq2: i1 - i2 + 1 = 0:
           jointly infeasible. *)
        let mk c0 =
          Depeq.make c0
            [
              (1, var ~side:`Src ~level:1 "i1" 9);
              (-1, var ~side:`Dst ~level:1 "i2" 9);
            ]
        in
        let p =
          Problem.numeric_of_equations ~n_common:1 ~common_ubs:[| 9 |]
            [ mk 0; mk 1 ]
        in
        Alcotest.(check int) "no directions" 0
          (Dirvec.Set.cardinal (Hierarchy.directions p)));
    Alcotest.test_case "tiny trip counts prune < and >" `Quick (fun () ->
        let eq =
          Depeq.make 0
            [
              (1, var ~side:`Src ~level:1 "i1" 0);
              (-1, var ~side:`Dst ~level:1 "i2" 0);
            ]
        in
        let p =
          Problem.numeric_of_equations ~n_common:1 ~common_ubs:[| 0 |] [ eq ]
        in
        match Dirvec.Set.to_list (Hierarchy.directions p) with
        | [ dv ] -> Alcotest.(check string) "(=)" "(=)" (Dirvec.to_string dv)
        | _ -> Alcotest.fail "expected only =");
  ]

let hierarchy_props =
  [
    (* The hierarchy's surviving set always contains the exact set. *)
    QCheck.Test.make ~name:"hierarchy covers exact directions" ~count:300
      arb_eq (fun eq ->
        let n_common =
          List.fold_left
            (fun m (t : Depeq.term) -> max m t.Depeq.var.Depeq.v_level)
            0 eq.Depeq.terms
        in
        QCheck.assume (n_common >= 1);
        let p =
          Problem.numeric_of_equations ~n_common
            ~common_ubs:(Array.make n_common 7)
            [ eq ]
        in
        let hier = Dirvec.Set.to_list (Hierarchy.directions p) in
        let exact = Exact.direction_vectors ~n_common [ eq ] in
        List.for_all
          (fun dv ->
            List.exists (fun h -> Dirvec.meet h dv <> None) hier)
          (Dirvec.Set.to_list exact));
  ]

(* --- the tabled hierarchy against a per-node reference -------------------- *)

(* The refinement as the classic formulation states it: at every node
   one [Budget.spend], then the feasibility of each level's direction,
   then per equation Banerjee-with-directions and GCD-with-directions
   (in that order, both run, as [Verdict.both]'s arguments evaluate)
   until one proves independence; children in [<], [=], [>] order.
   [Hierarchy.directions] runs the same two tests at each node of a
   walk that is not bounded, but re-tests only the equations that
   mention the child's level and solves an unmentioned level once; a
   bounded walk reads a table of per-level bounds built once per call.
   None of that may show in its answer, its exception or the fuel it
   leaves. *)
let reference_directions budget (p : Problem.numeric) =
  let n = p.n_common in
  let dv = Dirvec.all_star n in
  let dirs lvl = if lvl >= 1 && lvl <= n then dv.(lvl - 1) else Dirvec.Star in
  let dependent () =
    Array.for_all2 (fun ub d -> Hierarchy.feasible_dir ~ub d) p.common_ubs dv
    && List.for_all
         (fun eq ->
           let ban = Banerjee.test ~dirs eq in
           let gcd = Gcd_test.test ~dirs eq in
           Verdict.both gcd ban <> Verdict.Independent)
         p.eqs
  in
  let leaves = ref [] in
  let rec refine level =
    Dlz_base.Budget.spend budget;
    if dependent () then
      if level > n then leaves := Array.copy dv :: !leaves
      else
        List.iter
          (fun d ->
            dv.(level - 1) <- d;
            refine (level + 1);
            dv.(level - 1) <- Dirvec.Star)
          [ Dirvec.Lt; Dirvec.Eq; Dirvec.Gt ]
  in
  refine 1;
  List.sort Dirvec.compare !leaves

(* Multi-equation problems over 0-4 common loops: a random subset of
   the levels is used (the rest go unmentioned), bounds are often 0
   (so [<] and [>] are infeasible), a term may sit outside the common
   loops, and coefficients and constants are sometimes near [max_int],
   in a shuffled term order. *)
let gen_hier_case =
  QCheck.Gen.(
    let big =
      [ max_int; max_int - 1; (max_int / 2) + 1; -max_int; min_int; 1 lsl 40;
        -(1 lsl 40) ]
    in
    let coeff = frequency [ (5, int_range (-12) 12); (1, oneofl big) ] in
    let ub = oneofl [ 0; 0; 1; 4; 9 ] in
    let* n = int_range 0 4 in
    let* common_ubs = array_repeat n ub in
    let* levels =
      flatten_l
        (List.init n (fun i ->
             map (fun used -> if used then [ i + 1 ] else []) bool))
    in
    let levels = List.concat levels in
    let term side level name =
      let* c = coeff and* u = ub in
      return [ (c, var ~side ~level name u) ]
    in
    let gen_eq =
      let* c0 = frequency [ (5, int_range (-30) 30); (1, oneofl big) ] in
      let* pairs =
        flatten_l
          (List.map
             (fun l ->
               let* src = term `Src l (Printf.sprintf "i%d" l)
               and* dst = term `Dst l (Printf.sprintf "j%d" l)
               and* shape = int_range 0 3 in
               return
                 (match shape with
                 | 0 -> src @ dst
                 | 1 -> src
                 | 2 -> dst
                 | _ -> []))
             levels)
      in
      let* boxes = int_range 0 2 in
      let* level0 =
        flatten_l (List.init boxes (fun k -> term `Src 0 (Printf.sprintf "x%d" k)))
      in
      let* outside = frequency [ (6, return []); (1, term `Src (n + 1) "o") ] in
      let* terms = shuffle_l (List.concat (outside :: pairs @ level0)) in
      return (Depeq.make c0 terms)
    in
    let* eqs = list_size (int_range 1 3) gen_eq in
    let* fuel = pair (opt (int_range 1 60)) (opt (int_range 1 60)) in
    return (Problem.numeric_of_equations ~n_common:n ~common_ubs eqs, fuel))

let print_hier_case ((p : Problem.numeric), (outer, inner)) =
  let fuel = function None -> "-" | Some f -> string_of_int f in
  Printf.sprintf "n_common=%d ubs=[%s] fuel=%s/%s\n%s" p.n_common
    (String.concat ";" (Array.to_list (Array.map string_of_int p.common_ubs)))
    (fuel outer) (fuel inner)
    (String.concat "\n" (List.map Depeq.to_string p.eqs))

(* Vectors or the exception's text, and the fuel left on an outer
   budget and on the inner one carved out of it and spent on (the
   outer one only drains while the inner one has fuel, so it also
   tells one spend of [k] from [k] spends of one). *)
let hier_outcome solve (p, (outer, inner)) =
  let outer = Dlz_base.Budget.create ?fuel:outer () in
  let budget = Dlz_base.Budget.sub ?fuel:inner outer in
  let r =
    match solve budget p with
    | dvs -> Ok (List.map Dirvec.to_string dvs)
    | exception e -> Error (Printexc.to_string e)
  in
  ( r,
    Dlz_base.Budget.remaining_fuel outer,
    Dlz_base.Budget.remaining_fuel budget )

let hier_agrees case =
  hier_outcome
    (fun budget p -> Dirvec.Set.to_list (Hierarchy.directions ~budget p))
    case
  = hier_outcome reference_directions case

let hierarchy_reference_props =
  [
    QCheck.Test.make ~name:"compiled hierarchy = per-node reference"
      ~count:2000
      (QCheck.make ~print:print_hier_case gen_hier_case)
      hier_agrees;
  ]

let hierarchy_reference_units =
  [
    Alcotest.test_case "reference agreement reaches every edge" `Quick
      (fun () ->
        (* A fixed batch, so the edges the property relies on are
           known to be drawn: overflow, fuel exhaustion, a level no
           equation mentions that still has three feasible children,
           and walks on both of [directions]' paths: bounded ones read
           tables, the others run Banerjee.test and Gcd_test.test at
           each node. *)
        let cases =
          QCheck.Gen.generate ~rand:(Random.State.make [| 19 |]) ~n:3000
            gen_hier_case
        in
        let count pred = List.length (List.filter pred cases) in
        let raised what c =
          match hier_outcome reference_directions c with
          | Error e, _, _ -> String.starts_with ~prefix:what e
          | Ok _, _, _ -> false
        in
        let skips ((p : Problem.numeric), _) =
          List.exists
            (fun l ->
              p.common_ubs.(l - 1) >= 1
              && List.for_all
                   (fun (eq : Depeq.t) ->
                     List.for_all
                       (fun (t : Depeq.term) -> t.var.Depeq.v_level <> l)
                       eq.terms)
                   p.eqs)
            (List.init p.n_common (fun i -> i + 1))
        in
        List.iter
          (fun c ->
            if not (hier_agrees c) then
              Alcotest.failf "disagrees with the reference:\n%s"
                (print_hier_case c))
          cases;
        Alcotest.(check bool) "some overflow" true
          (count (raised "Dlz_base.Intx.Overflow") > 0);
        Alcotest.(check bool) "some exhaustion" true
          (count (raised "Dlz_base.Budget.Exhausted") > 0);
        Alcotest.(check bool) "some skipped level" true (count skips > 0);
        let bounded ((p : Problem.numeric), _) =
          List.for_all Hierarchy.bounded p.eqs
        in
        Alcotest.(check bool) "some bounded walk" true (count bounded > 0);
        Alcotest.(check bool) "some unbounded walk" true
          (count (fun c -> not (bounded c)) > 0));
    Alcotest.test_case "directions allocates under 500 minor words" `Quick
      (fun () ->
        (* Three common loops, two equations, level 3 unmentioned: 10
           nodes and three vectors.  The per-node test allocates
           nothing, so what remains is the tables, folded from the
           equations' terms (every level's four ranges, once), and the
           result: about 360 words (about 410 when the tables were
           folded from per-term slot and memo records); walking with a
           closure, an [Array.sub] and fresh Banerjee point lists per
           node took about 1700. *)
        let eq_a =
          Depeq.make 1
            [ (1, var ~side:`Src ~level:1 "i1" 9);
              (-1, var ~side:`Dst ~level:1 "i2" 9) ]
        in
        let eq_b =
          Depeq.make 0
            [ (10, var ~side:`Src ~level:2 "j1" 9);
              (-10, var ~side:`Dst ~level:2 "j2" 9); (1, var "x" 9) ]
        in
        let p =
          Problem.numeric_of_equations ~n_common:3 ~common_ubs:[| 9; 9; 9 |]
            [ eq_a; eq_b ]
        in
        Alcotest.(check (list string)) "vectors"
          [ "(<, =, <)"; "(<, =, =)"; "(<, =, >)" ]
          (List.map Dirvec.to_string
             (Dirvec.Set.to_list (Hierarchy.directions p)));
        let reps = 100 in
        let before = Gc.minor_words () in
        for _ = 1 to reps do
          ignore (Hierarchy.directions p)
        done;
        let per_call = (Gc.minor_words () -. before) /. float_of_int reps in
        Alcotest.(check bool)
          (Printf.sprintf "minor words per call %.0f <= 500" per_call)
          true (per_call <= 500.));
    Alcotest.test_case "delinearize allocates under 2000 minor words" `Quick
      (fun () ->
        (* A corpus-shaped pair, C[i][j] against itself in an (i, j, k)
           nest: three common loops, two equations, level 3
           unmentioned.  One strategy call solves both equations,
           meets their packed vector sets and builds the result list
           (about 790 words).  Meeting lists with [List.sort_uniq]
           and polymorphic compare, and sorting the hierarchy's
           leaves, took about 2820. *)
        let pair level =
          Depeq.make 0
            [ (1, var ~side:`Src ~level (Printf.sprintf "i%d" level) 9);
              (-1, var ~side:`Dst ~level (Printf.sprintf "j%d" level) 9) ]
        in
        let p =
          Problem.synthetic
            (Problem.numeric_of_equations ~n_common:3
               ~common_ubs:[| 9; 9; 9 |] [ pair 1; pair 2 ])
        in
        let module Strategy = Dlz_engine.Strategy in
        let run () =
          Dlz_engine.Registry.delinearize.Strategy.run
            ~env:Dlz_symbolic.Assume.empty ~budget:Dlz_base.Budget.unlimited p
        in
        (match run () with
        | Strategy.Decided (v, dvs, _) ->
            Alcotest.(check (list string)) "answer"
              [ "dependent"; "(=, =, <)"; "(=, =, =)"; "(=, =, >)" ]
              (Verdict.to_string v :: List.map Dirvec.to_string dvs)
        | Strategy.Pass -> Alcotest.fail "delinearize passed");
        let reps = 100 in
        let before = Gc.minor_words () in
        for _ = 1 to reps do
          ignore (run ())
        done;
        let per_call = (Gc.minor_words () -. before) /. float_of_int reps in
        Alcotest.(check bool)
          (Printf.sprintf "minor words per call %.0f <= 2000" per_call)
          true (per_call <= 2000.));
  ]

(* --- packed direction-vector sets against lists --------------------------- *)

let set_of_list n vs =
  let b = Dirvec.Set.builder n in
  List.iter (Dirvec.Set.add b) vs;
  Dirvec.Set.finish b

(* The reference meet of two vector lists: every non-empty pairwise
   [Dirvec.meet], sorted and deduplicated. *)
let reference_meet xs ys =
  List.concat_map (fun x -> List.filter_map (fun y -> Dirvec.meet x y) ys) xs
  |> List.sort_uniq Dirvec.compare

(* Two vector lists over the same levels: 0-3 levels, or 21 (one int
   exactly), 22 and 30 (past one int).  Each case draws its own share
   of [*], so long vectors still meet; all seven directions occur. *)
let gen_set_pair =
  QCheck.Gen.(
    let* n = frequency [ (6, int_range 0 3); (1, oneofl [ 21; 22; 30 ]) ] in
    let* stars = oneofl [ 0; 2; 8; 40 ] in
    let dir =
      frequency
        ((stars, return Dirvec.Star)
        :: List.map (fun d -> (1, return d)) all_dirs)
    in
    let vec = map Array.of_list (list_repeat n dir) in
    let set =
      frequency
        [ (6, list_size (int_range 0 6) vec); (1, return [ Dirvec.all_star n ]) ]
    in
    let* xs = set and* ys = set in
    return (n, xs, ys))

let print_set_pair (n, xs, ys) =
  let show l = String.concat " " (List.map Dirvec.to_string l) in
  Printf.sprintf "n=%d\nx: %s\ny: %s" n (show xs) (show ys)

let dvset_props =
  [
    QCheck.Test.make ~name:"packed meet = list meet" ~count:3000
      (QCheck.make ~print:print_set_pair gen_set_pair)
      (fun (n, xs, ys) ->
        let sx = set_of_list n xs and sy = set_of_list n ys in
        let met = Dirvec.Set.meet sx sy and want = reference_meet xs ys in
        Dirvec.Set.to_list sx = List.sort_uniq Dirvec.compare xs
        && Dirvec.Set.to_list met = want
        && Dirvec.Set.cardinal met = List.length want
        && Dirvec.Set.is_empty met = (want = [])
        && Dirvec.Set.equal met (set_of_list n want));
    (* The packed set itself, not only its list, is the reference's:
       leaves copied by an unmentioned level must pack canonically. *)
    QCheck.Test.make ~name:"packed directions = reference" ~count:1000
      (QCheck.make ~print:print_hier_case gen_hier_case)
      (fun (p, _) ->
        match reference_directions Dlz_base.Budget.unlimited p with
        | reference ->
            Dirvec.Set.equal (Hierarchy.directions p)
              (set_of_list p.n_common reference)
        | exception e -> (
            match Hierarchy.directions p with
            | _ -> false
            | exception e' -> e = e'));
  ]

let dvset_units =
  [
    Alcotest.test_case "set order is Dirvec.compare" `Quick (fun () ->
        let all = List.map (fun d -> [| d |]) all_dirs in
        let s = set_of_list 1 (List.rev all) in
        Alcotest.(check (list string)) "seven directions in order"
          (List.map Dirvec.to_string all)
          (List.map Dirvec.to_string (Dirvec.Set.to_list s));
        let n = 21 in
        let v d = Array.init n (fun i -> if i = 0 then d else Dirvec.Lt) in
        Alcotest.(check (list string)) "level 1 in the top field of a full int"
          (List.map (fun d -> Dirvec.to_string (v d)) all_dirs)
          (List.map Dirvec.to_string
             (Dirvec.Set.to_list
                (set_of_list n (List.rev_map v all_dirs)))));
    Alcotest.test_case "zero levels" `Quick (fun () ->
        let top = Dirvec.Set.all_star 0 and none = Dirvec.Set.empty 0 in
        Alcotest.(check int) "one vector" 1 (Dirvec.Set.cardinal top);
        Alcotest.(check bool) "meet keeps it" false
          (Dirvec.Set.is_empty (Dirvec.Set.meet top top));
        Alcotest.(check bool) "meet with none" true
          (Dirvec.Set.is_empty (Dirvec.Set.meet top none)));
    Alcotest.test_case "directions past one int" `Quick (fun () ->
        (* 23 common loops, all but the last two of one iteration: level
           22 carries [<], and level 23, unmentioned, copies it across
           into the second int of each vector. *)
        let n = 23 in
        let eq =
          Depeq.make 1
            [ (1, var ~side:`Src ~level:22 "i1" 9);
              (-1, var ~side:`Dst ~level:22 "i2" 9) ]
        in
        let common_ubs = Array.init n (fun i -> if i >= 21 then 9 else 0) in
        let p = Problem.numeric_of_equations ~n_common:n ~common_ubs [ eq ] in
        let got = Hierarchy.directions p in
        let want = reference_directions Dlz_base.Budget.unlimited p in
        Alcotest.(check int) "three vectors" 3 (Dirvec.Set.cardinal got);
        Alcotest.(check (list string)) "reference vectors"
          (List.map Dirvec.to_string want)
          (List.map Dirvec.to_string (Dirvec.Set.to_list got));
        Alcotest.(check bool) "canonical packing" true
          (Dirvec.Set.equal got (set_of_list n want)));
  ]

(* --- ddvec / classify --------------------------------------------------------- *)

let misc_units =
  [
    Alcotest.test_case "ddvec" `Quick (fun () ->
        let dv = [| Dirvec.Star; Dirvec.Lt |] in
        let dd = Ddvec.with_distance (Ddvec.of_dirvec dv) 2 1 in
        Alcotest.(check string) "(*, +1)" "(*, +1)" (Ddvec.to_string dd);
        Alcotest.(check string) "to_dirvec" "(*, <)"
          (Dirvec.to_string (Ddvec.to_dirvec dd));
        Alcotest.(check bool) "consistent" true (Ddvec.consistent dd dv);
        let dd0 = Ddvec.of_dirvec [| Dirvec.Eq |] in
        Alcotest.(check string) "= becomes 0" "(0)" (Ddvec.to_string dd0));
    Alcotest.test_case "ddvec join" `Quick (fun () ->
        let a = Ddvec.with_distance (Ddvec.of_dirvec [| Dirvec.Lt |]) 1 2 in
        let b = Ddvec.with_distance (Ddvec.of_dirvec [| Dirvec.Lt |]) 1 2 in
        Alcotest.(check string) "same distances stay" "(+2)"
          (Ddvec.to_string (Ddvec.join a b));
        let c = Ddvec.with_distance (Ddvec.of_dirvec [| Dirvec.Lt |]) 1 3 in
        Alcotest.(check string) "mixed widen" "(<)"
          (Ddvec.to_string (Ddvec.join a c)));
    Alcotest.test_case "classify" `Quick (fun () ->
        Alcotest.(check string) "true" "true"
          (Classify.to_string (Classify.kind ~src:`Write ~dst:`Read));
        Alcotest.(check string) "anti" "anti"
          (Classify.to_string (Classify.kind ~src:`Read ~dst:`Write));
        Alcotest.(check string) "output" "output"
          (Classify.to_string (Classify.kind ~src:`Write ~dst:`Write));
        Alcotest.(check string) "input" "input"
          (Classify.to_string (Classify.kind ~src:`Read ~dst:`Read)));
    Alcotest.test_case "symeq numeric bridge" `Quick (fun () ->
        let sv = Symeq.var ~side:`Src ~level:1 "i1" (Poly.const 9) in
        let eq = Symeq.make (Poly.const (-5)) [ (Poly.const 2, sv) ] in
        (match Symeq.to_numeric eq with
        | Some neq ->
            Alcotest.(check int) "c0" (-5) neq.Depeq.c0;
            Alcotest.(check (list int)) "coeffs" [ 2 ] (Depeq.coeffs neq)
        | None -> Alcotest.fail "expected numeric");
        let sv2 = Symeq.var ~side:`Src ~level:1 "i1" (Poly.sym "N") in
        let eq2 = Symeq.make Poly.zero [ (Poly.sym "N", sv2) ] in
        Alcotest.(check bool) "symbolic stays symbolic" true
          (Symeq.to_numeric eq2 = None);
        let neq2 = Symeq.instantiate (fun _ -> 4) eq2 in
        Alcotest.(check (list int)) "instantiated" [ 4 ] (Depeq.coeffs neq2);
        Alcotest.(check (list string)) "symbols" [ "N" ] (Symeq.symbols eq2));
  ]

(* Closed-form Banerjee bounds must agree with vertex enumeration. *)
let closed_form_props =
  [
    QCheck.Test.make ~name:"closed-form equals vertex bounds, all dirs"
      ~count:600
      (QCheck.pair arb_eq
         (QCheck.oneofl Dirvec.[ Lt; Eq; Gt; Le; Ge; Ne; Star ]))
      (fun (eq, d) ->
        let dirs _ = d in
        Ivl.equal (Banerjee.interval ~dirs eq)
          (Banerjee.interval_closed ~dirs eq));
  ]

(* Exhaustive cross-check of the two per-pair derivations, against each
   other and against brute-force enumeration of the region's integer
   points: every direction, all bounds in [0,6]², all coefficients in
   [-5,5]².  The randomized property above samples composed equations;
   this pins the primitive the composition is built from. *)
let pair_exhaustive_units =
  let admits d (alpha, beta) =
    match (d : Dirvec.dir) with
    | Dirvec.Lt -> alpha < beta
    | Dirvec.Eq -> alpha = beta
    | Dirvec.Gt -> alpha > beta
    | Dirvec.Le -> alpha <= beta
    | Dirvec.Ge -> alpha >= beta
    | Dirvec.Ne -> alpha <> beta
    | Dirvec.Star -> true
  in
  let brute a ub_a b ub_b d =
    let acc = ref Ivl.empty in
    for alpha = 0 to ub_a do
      for beta = 0 to ub_b do
        if admits d (alpha, beta) then
          acc := Ivl.join !acc (Ivl.point ((a * alpha) + (b * beta)))
      done
    done;
    !acc
  in
  let all_dirs = Dirvec.[ Lt; Eq; Gt; Le; Ge; Ne; Star ] in
  let check_grid name f =
    Alcotest.test_case name `Quick (fun () ->
        List.iter
          (fun d ->
            for ub_a = 0 to 6 do
              for ub_b = 0 to 6 do
                for a = -5 to 5 do
                  for b = -5 to 5 do
                    f d a ub_a b ub_b
                  done
                done
              done
            done)
          all_dirs)
  in
  let pp_case d a ub_a b ub_b =
    Printf.sprintf "dir=%s a=%d ub_a=%d b=%d ub_b=%d"
      (Dirvec.dir_to_string d) a ub_a b ub_b
  in
  [
    check_grid "vertex = closed-form on the full grid"
      (fun d a ub_a b ub_b ->
        let v = Banerjee.pair_interval a ub_a b ub_b d in
        let c = Banerjee.pair_interval_closed a ub_a b ub_b d in
        if not (Ivl.equal v c) then
          Alcotest.failf "diverge at %s: vertex %s, closed %s"
            (pp_case d a ub_a b ub_b) (Format.asprintf "%a" Ivl.pp v) (Format.asprintf "%a" Ivl.pp c));
    check_grid "vertex bounds are exact on the full grid"
      (fun d a ub_a b ub_b ->
        let v = Banerjee.pair_interval a ub_a b ub_b d in
        let g = brute a ub_a b ub_b d in
        if not (Ivl.equal v g) then
          Alcotest.failf "inexact at %s: vertex %s, ground truth %s"
            (pp_case d a ub_a b ub_b) (Format.asprintf "%a" Ivl.pp v) (Format.asprintf "%a" Ivl.pp g));
  ]

(* --- lambda test ---------------------------------------------------------------- *)

let lambda_units =
  [
    Alcotest.test_case "coupled subscripts refuted by a combination" `Quick
      (fun () ->
        (* A(i+1, i) vs A(j, j): eq1: i1 + 1 - j2 = 0; eq2: i1 - j2 = 0.
           Subtracting gives 1 = 0. *)
        let i1 = var ~side:`Src ~level:1 "i1" 9 in
        let j2 = var ~side:`Dst ~level:1 "j2" 9 in
        let e1 = Depeq.make 1 [ (1, i1); (-1, j2) ] in
        let e2 = Depeq.make 0 [ (1, i1); (-1, j2) ] in
        Alcotest.check verdict "independent" Verdict.Independent
          (Lambda.test [ e1; e2 ]);
        (* Per-dimension Banerjee alone cannot. *)
        Alcotest.check verdict "eq1 alone dependent" Verdict.Dependent
          (Banerjee.test e1);
        Alcotest.check verdict "eq2 alone dependent" Verdict.Dependent
          (Banerjee.test e2));
    Alcotest.test_case "fails on eq(1), as the paper says" `Quick (fun () ->
        Alcotest.check verdict "dependent" Verdict.Dependent
          (Lambda.test [ eq1 () ]));
    Alcotest.test_case "combinations cancel the shared variable" `Quick
      (fun () ->
        let x = var ~level:1 "x" 5 and y = var ~side:`Dst ~level:1 "y" 5 in
        let e1 = Depeq.make 0 [ (2, x); (3, y) ] in
        let e2 = Depeq.make (-1) [ (4, x); (-1, y) ] in
        List.iter
          (fun (c : Depeq.t) ->
            List.iter
              (fun (t : Depeq.term) ->
                (* no combination retains both x and y at once with the
                   cancelled one's coefficient *)
                ignore t)
              c.Depeq.terms)
          (Lambda.combinations e1 e2);
        Alcotest.(check int) "two combinations" 2
          (List.length (Lambda.combinations e1 e2)));
  ]

let lambda_props =
  [
    QCheck.Test.make ~name:"lambda sound vs exact on systems" ~count:400
      (QCheck.pair arb_eq arb_eq)
      (fun (e1, e2) ->
        match (Lambda.test [ e1; e2 ], Exact.solve [ e1; e2 ]) with
        | Verdict.Independent, Exact.Feasible _ -> false
        | _ -> true);
  ]

(* --- omega ------------------------------------------------------------------- *)

let omega_units =
  [
    Alcotest.test_case "eq(1) is Unsat" `Quick (fun () ->
        Alcotest.(check bool) "unsat" true (Omega.solve [ eq1 () ] = Omega.Unsat));
    Alcotest.test_case "simple feasible" `Quick (fun () ->
        let eq = Depeq.make (-7) [ (2, var "x" 5); (1, var ~level:2 "y" 5) ] in
        Alcotest.(check bool) "sat" true (Omega.solve [ eq ] = Omega.Sat));
    Alcotest.test_case "divisibility-only infeasibility" `Quick (fun () ->
        (* 6x - 10y = 3 has no integer solutions regardless of bounds. *)
        let eq =
          Depeq.make (-3)
            [ (6, var "x" 100); (-10, var ~side:`Dst "y" 100) ]
        in
        Alcotest.(check bool) "unsat" true (Omega.solve [ eq ] = Omega.Unsat));
    Alcotest.test_case "conjoined equalities" `Quick (fun () ->
        let x = var "x" 9 in
        let e1 = Depeq.make (-4) [ (1, x) ] in
        let e2 = Depeq.make (-5) [ (1, x) ] in
        Alcotest.(check bool) "unsat" true (Omega.solve [ e1; e2 ] = Omega.Unsat);
        Alcotest.(check bool) "each sat" true (Omega.solve [ e1 ] = Omega.Sat));
    Alcotest.test_case "tiny budget yields Unknown -> Dependent" `Quick
      (fun () ->
        let eq =
          Depeq.make (-1)
            (List.init 6 (fun i ->
                 ( (if i mod 2 = 0 then 7 else -5),
                   var ~level:(i + 1) (Printf.sprintf "v%d" i) 30 )))
        in
        match Omega.solve ~fuel:3 [ eq ] with
        | Omega.Unknown ->
            Alcotest.(check bool) "dependent" true
              (Omega.test ~fuel:3 [ eq ] = Verdict.Dependent)
        | _ -> () (* may still finish: fine *));
    Alcotest.test_case "splinter cases are charged to the budget" `Quick
      (fun () ->
        (* Eqgen random case 30 (seed 1): the splinter step of this pair
           has about 10.6 M cases.  Built eagerly they cost seconds and
           ~96 M minor words before the first budget check; walked
           lazily, a 100-step budget stops the search almost at once. *)
        let v side level ub =
          var ~side ~level
            (Printf.sprintf "%c%d" (if side = `Src then 'i' else 'j') level)
            ub
        in
        let i1 = v `Src 1 5 and j1 = v `Dst 1 5 and i2 = v `Src 2 5
        and j2 = v `Dst 2 5 and i3 = v `Src 3 0 and j3 = v `Dst 3 0 in
        let e1 =
          Depeq.make (-27)
            [ (-8, i1); (7, j1); (6, i2); (7, j2); (5, i3); (-7, j3) ]
        in
        let e2 =
          Depeq.make (-29)
            [ (7, i1); (1, j1); (-1, i2); (4, j2); (-6, i3); (-6, j3) ]
        in
        let w0 = Gc.minor_words () in
        let r =
          Omega.solve ~budget:(Dlz_base.Budget.create ~fuel:100 ()) [ e1; e2 ]
        in
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool) "Unknown" true (r = Omega.Unknown);
        Alcotest.(check bool)
          (Printf.sprintf "under 1 M minor words (got %.0f)" words)
          true (words < 1e6));
  ]

let omega_props =
  [
    QCheck.Test.make ~name:"omega agrees with exact" ~count:800 arb_eq
      (fun eq ->
        match (Omega.solve [ eq ], Exact.solve [ eq ]) with
        | Omega.Sat, Exact.Infeasible | Omega.Unsat, Exact.Feasible _ -> false
        | _ -> true);
    QCheck.Test.make ~name:"omega decides (no Unknown on small systems)"
      ~count:400 arb_eq
      (fun eq -> Omega.solve [ eq ] <> Omega.Unknown);
    QCheck.Test.make ~name:"omega agrees with exact on pairs" ~count:300
      (QCheck.pair arb_eq arb_eq)
      (fun (e1, e2) ->
        (* Equations share variables only when (side, level, name) all
           match; ensure consistent bounds by construction of gen_eq is
           not guaranteed, so compare against exact, which now also takes
           the tightest range. *)
        match (Omega.solve [ e1; e2 ], Exact.solve [ e1; e2 ]) with
        | Omega.Sat, Exact.Infeasible | Omega.Unsat, Exact.Feasible _ -> false
        | _ -> true);
  ]

(* --- range vectors ------------------------------------------------------------ *)

let rangevec_units =
  [
    Alcotest.test_case "of_exact on the serial loop" `Quick (fun () ->
        (* D(i+1) = D(i): delta is exactly +1. *)
        let eq =
          Depeq.make 1
            [
              (1, var ~side:`Src ~level:1 "i1" 8);
              (-1, var ~side:`Dst ~level:1 "i2" 8);
            ]
        in
        match Rangevec.of_exact ~common_ubs:[| 8 |] [ eq ] with
        | Some r -> Alcotest.(check string) "([1, 1])" "([1, 1])"
                      (Rangevec.to_string r)
        | None -> Alcotest.fail "expected ranges");
    Alcotest.test_case "of_exact empty dependence" `Quick (fun () ->
        let eq =
          Depeq.make (-5)
            [
              (1, var ~side:`Src ~level:1 "i1" 4);
              (-1, var ~side:`Dst ~level:1 "i2" 4);
            ]
        in
        match Rangevec.of_exact ~common_ubs:[| 4 |] [ eq ] with
        | Some r ->
            Alcotest.(check bool) "empty" true
              (Dlz_base.Ivl.is_empty r.(0))
        | None -> Alcotest.fail "expected ranges");
    Alcotest.test_case "of_directions" `Quick (fun () ->
        let r =
          Rangevec.of_directions ~common_ubs:[| 5; 5 |]
            [ [| Dirvec.Lt; Dirvec.Eq |]; [| Dirvec.Eq; Dirvec.Eq |] ]
        in
        Alcotest.(check string) "([0, 5], [0, 0])" "([0, 5], [0, 0])"
          (Rangevec.to_string r));
    Alcotest.test_case "with_distances refines" `Quick (fun () ->
        let r =
          Rangevec.of_directions ~common_ubs:[| 5 |] [ [| Dirvec.Lt |] ]
        in
        let r' = Rangevec.with_distances r [ (1, 2) ] in
        Alcotest.(check string) "([2, 2])" "([2, 2])" (Rangevec.to_string r'));
    Alcotest.test_case "subsumes" `Quick (fun () ->
        let wide = [| Dlz_base.Ivl.make (-3) 3 |] in
        let tight = [| Dlz_base.Ivl.make 0 2 |] in
        Alcotest.(check bool) "wide covers tight" true
          (Rangevec.subsumes wide tight);
        Alcotest.(check bool) "tight does not cover wide" false
          (Rangevec.subsumes tight wide);
        Alcotest.(check bool) "anything covers empty" true
          (Rangevec.subsumes tight [| Dlz_base.Ivl.empty |]));
  ]

(* --- flat canonical keys ---------------------------------------------------- *)

let key_of p =
  let kb = Problem.Keybuf.create () in
  if Problem.Keybuf.encode kb p then
    Some (Bytes.sub_string (Problem.Keybuf.contents kb) 0
            (Problem.Keybuf.length kb))
  else None

(* The ints either side of each varint length step, and the ends. *)
let extremes =
  [ 0; 1; -1; 63; -63; 64; -64; 8191; -8191; 8192; -8192; max_int; min_int ]

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* Over one common loop of bound 4 when [n] is 1, two of bounds 4, 9
   when it is 2. *)
let lifted ?(n = 1) eqs =
  Problem.synthetic
    (Problem.numeric_of_equations ~n_common:n
       ~common_ubs:(if n = 1 then [| 4 |] else [| 4; 9 |])
       eqs)

let i1 = var ~side:`Src ~level:1 "i1" 4
let i2 = var ~side:`Dst ~level:1 "i2" 4

(* [c*i1 - c*i2 + c0 = 0]. *)
let shift c c0 = Depeq.make c0 [ (c, i1); (-c, i2) ]

(* The integer form as [Problem.t] defined it when strategies projected
   it on every call: every bound and coefficient a constant, every
   variable bound nonnegative, and each equation rebuilt by merging
   duplicate variables into their first occurrence and dropping zero
   coefficients. *)
let reference_numeric (n_common, common_ubs, equations, opaque_dims) =
  let ints ps =
    let cs = List.map Poly.to_const ps in
    if List.mem None cs then None else Some (List.map Option.get cs)
  in
  let equation (e : Symeq.t) =
    match (Poly.to_const e.Symeq.c0, ints (List.map fst e.Symeq.terms),
           ints (List.map (fun (_, v) -> v.Symeq.s_ub) e.Symeq.terms))
    with
    | Some c0, Some cs, Some ubs when List.for_all (fun u -> u >= 0) ubs ->
        let merged =
          List.fold_left2
            (fun acc c ((_, v), ub) ->
              let v =
                Depeq.var ~side:v.Symeq.s_side ~level:v.Symeq.s_level
                  v.Symeq.s_name ub
              in
              if List.exists (fun (t : Depeq.term) -> Depeq.same_var t.var v) acc
              then
                List.map
                  (fun (t : Depeq.term) ->
                    if Depeq.same_var t.var v then
                      { t with coeff = Dlz_base.Intx.add t.coeff c }
                    else t)
                  acc
              else acc @ [ { Depeq.coeff = c; var = v } ])
            [] cs
            (List.combine e.Symeq.terms ubs)
        in
        Some
          { Depeq.c0;
            terms = List.filter (fun (t : Depeq.term) -> t.coeff <> 0) merged }
    | _ -> None
  in
  match ints common_ubs with
  | None -> None
  | Some ubs ->
      let eqs = List.map equation equations in
      if List.mem None eqs then None
      else
        Some
          { Problem.n_common; common_ubs = Array.of_list ubs;
            eqs = List.map Option.get eqs; opaque_dims }

(* The polynomial system an Eqgen case's problem stands for, rebuilt
   without [Problem]: a program pair's subscripts through
   [Symeq.of_affine_pair] over the common loops, a generated numeric
   system's ground lifted to constant polynomials, and a generated
   symbolic system's own equations. *)
let reference_system (c : Dlz_oracle.Eqgen.case) =
  let module Access = Dlz_ir.Access in
  let p = c.problem in
  if not (String.equal p.src.array "synthetic") then begin
    let rec zip (eqs, opq) ss ds =
      match (ss, ds) with
      | [], [] -> (List.rev eqs, opq)
      | Access.Aff fs :: ss, Access.Aff fd :: ds ->
          zip
            ( Symeq.of_affine_pair ~src:fs ~src_loops:p.src.loops ~dst:fd
                ~dst_loops:p.dst.loops
              :: eqs,
              opq )
            ss ds
      | _ :: ss, _ :: ds -> zip (eqs, opq + 1) ss ds
      | rest, [] | [], rest -> (List.rev eqs, opq + List.length rest)
    in
    let common = Access.common_loops p.src p.dst in
    let equations, opaque = zip ([], 0) p.src.subs p.dst.subs in
    ( List.length common,
      List.map (fun (l : Access.loop) -> l.l_ub) common,
      equations,
      opaque )
  end
  else
    match p.form with
    | Problem.Symbolic s -> (s.n_common, s.common_ubs, s.equations, s.opaque_dims)
    | Problem.Numeric _ ->
        let g = c.ground in
        let lift (eq : Depeq.t) =
          Symeq.make (Poly.const eq.c0)
            (List.map
               (fun (t : Depeq.term) ->
                 ( Poly.const t.coeff,
                   Symeq.var ~side:t.var.v_side ~level:t.var.v_level
                     t.var.v_name (Poly.const t.var.v_ub) ))
               eq.terms)
        in
        ( g.n_common,
          List.map Poly.const (Array.to_list g.common_ubs),
          List.map lift g.eqs,
          g.opaque_dims )

let keybuf_units =
  [
    Alcotest.test_case "pinned key bytes" `Quick (fun () ->
        (* The canonical form, byte for byte: a change here is a change
           of every cache key and of the snapshot format. *)
        let pin what expected p =
          Alcotest.(check (option string)) what (Some expected)
            (Option.map hex (key_of p))
        in
        pin "one equation" "04000408120209080200080200020208010004001214000402121300"
          (lifted ~n:2 [ eq1 () ]);
        let two = "04000408120406040200080400020208030009080200080200020208010004001214000402121300" in
        pin "two equations" two (lifted ~n:2 [ eq1 (); shift 2 3 ]);
        pin "two equations, reordered" two (lifted ~n:2 [ shift 2 3; eq1 () ]);
        (* -2*i1 + 2*i2 + 3 = 0 flips to 2*i1 - 2*i2 - 3 = 0. *)
        let flipped = "0200020802050402000804000202080300" in
        pin "sign flip" flipped (lifted [ shift (-2) 3 ]);
        pin "sign flip, written flipped" flipped (lifted [ shift 2 (-3) ]);
        let divided = "0200020802040402000802000202080100" in
        pin "gcd division" divided (lifted [ shift 4 8 ]);
        pin "gcd division, written divided" divided (lifted [ shift 1 2 ]);
        let named name paired =
          lifted
            [ Depeq.make (-1)
                [ (3, var name 7); (1, var ~side:`Src ~level:1 paired 4);
                  (-1, i2) ] ]
        in
        pin "level-0 named variable" "0200020802010600000e06026e02000802000202080100"
          (named "n" "i1");
        pin "a paired loop variable's name is display only"
          "0200020802010600000e06026e02000802000202080100" (named "n" "p");
        Alcotest.(check bool) "a level-0 variable's name is part of the key"
          true
          (key_of (named "n" "i1") <> key_of (named "m" "i1"));
        (* 2*i1 - 5*i2 + 3*i1 + 1 = 0 merges to 5*i1 - 5*i2 + 1 = 0. *)
        let merged = "020002080202040200080a000202080900" in
        pin "merged duplicate variables" merged
          (lifted
             [ { Depeq.c0 = 1;
                 terms =
                   [ { Depeq.coeff = 2; var = i1 }; { Depeq.coeff = -5; var = i2 };
                     { Depeq.coeff = 3; var = i1 } ] } ]);
        pin "merged duplicate variables, written merged" merged
          (lifted [ shift 5 1 ]));
    Alcotest.test_case "no integer form, or no canonical form: uncacheable"
      `Quick (fun () ->
        let n = Poly.sym "N" in
        let symbolic =
          Problem.make ~n_common:1
            ~common_ubs:[ Poly.const 4 ] ~opaque_dims:0
            [ Symeq.make Poly.zero
                [ (n, Symeq.var ~side:`Src ~level:1 "i1" (Poly.const 4));
                  (Poly.neg n, Symeq.var ~side:`Dst ~level:1 "i2" (Poly.const 4)) ] ]
        in
        let negative =
          lifted
            [ { Depeq.c0 = 0; terms = [ { Depeq.coeff = 1; var = var "x" (-1) } ] } ]
        in
        (* The sign flip negates min_int. *)
        let overflow = lifted [ Depeq.make 0 [ (min_int, var "a" 1) ] ] in
        List.iter
          (fun (what, (p : Problem.t), has_numeric) ->
            Alcotest.(check bool) (what ^ ": integer form") has_numeric
              (match p.form with Problem.Numeric _ -> true | _ -> false);
            Alcotest.(check (option string)) (what ^ ": no key") None
              (key_of p))
          [ ("symbolic coefficient", symbolic, false);
            ("negative bound", negative, false);
            ("normalization overflow", overflow, true) ]);
    Alcotest.test_case "integer form = the reference projection" `Quick
      (fun () ->
        let module Eqgen = Dlz_oracle.Eqgen in
        List.iter
          (fun (what, cases) ->
            let differ =
              List.filter
                (fun (c : Eqgen.case) ->
                  match
                    (c.problem.form, reference_numeric (reference_system c))
                  with
                  | Problem.Numeric np, Some r -> np <> r
                  | Problem.Symbolic _, None -> false
                  | _ -> true)
                cases
            in
            Alcotest.(check (list string))
              (what ^ ": cases whose integer form differs") []
              (List.map (fun (c : Eqgen.case) -> c.Eqgen.id) differ);
            Alcotest.(check bool) (what ^ ": some symbolic") true
              (what = "polybench"
              || List.exists
                   (fun (c : Eqgen.case) ->
                     match c.problem.form with
                     | Problem.Symbolic _ -> true
                     | Problem.Numeric _ -> false)
                   cases))
          [ ("corpus", Eqgen.corpus ()); ("polybench", Eqgen.polybench ());
            ("all seed 1", Eqgen.all ~seed:1L ~count:5000) ]);
    Alcotest.test_case "encode allocates nothing after warm-up" `Quick
      (fun () ->
        (* Terms listed out of canonical order and a negative first
           coefficient, so the encode sorts, flips and divides by the
           gcd; two equations, so it also sorts the segments. *)
        let eq k =
          Depeq.make (-4 * k)
            [ (-10, var ~side:`Dst ~level:2 "j2" 9);
              (2, var ~side:`Src ~level:2 "j1" 9);
              (-2 * k, var ~side:`Src ~level:1 "i1" 4);
              (6, var ~side:`Dst ~level:1 "i2" 4) ]
        in
        let problem eqs =
          Problem.synthetic
            (Problem.numeric_of_equations ~n_common:2 ~common_ubs:[| 4; 9 |]
               eqs)
        in
        let kb = Problem.Keybuf.create () in
        let words f =
          let before = Gc.minor_words () in
          for _ = 1 to 100 do
            f ()
          done;
          Gc.minor_words () -. before
        in
        let nothing = words (fun () -> ()) in
        List.iter
          (fun (what, p) ->
            Alcotest.(check bool) (what ^ " encodes") true
              (Problem.Keybuf.encode kb p);
            let per_call =
              (words (fun () -> ignore (Problem.Keybuf.encode kb p))
              -. nothing)
              /. 100.
            in
            Alcotest.(check (float 0.))
              (what ^ ": minor words per encode") 0. per_call)
          [ ("one equation", problem [ eq 1 ]);
            ("two equations", problem [ eq 3; eq 1 ]) ]);
    Alcotest.test_case "extreme values give distinct keys" `Quick (fun () ->
        (* [a] leads the canonical term order (by name) with
           coefficient 1, so the sign flip and the gcd division leave
           the varied field as written. *)
        let problem ~c0 ~coeff ~ub =
          Problem.synthetic
            (Problem.numeric_of_equations ~n_common:0 ~common_ubs:[||]
               [ Depeq.make c0 [ (1, var "a" 9); (coeff, var "x" ub) ] ])
        in
        let distinct what keys =
          let keys = List.filter_map Fun.id keys in
          Alcotest.(check int) (what ^ ": one key per value")
            (List.length keys)
            (List.length (List.sort_uniq String.compare keys))
        in
        let coeffs =
          List.map (fun c -> key_of (problem ~c0:5 ~coeff:c ~ub:9))
            (List.filter (( <> ) 0) extremes)
        in
        Alcotest.(check bool) "every nonzero coefficient encodes" true
          (List.for_all Option.is_some coeffs);
        distinct "coefficient" coeffs;
        let ubs =
          List.map (fun ub -> key_of (problem ~c0:5 ~coeff:3 ~ub))
            (List.filter (fun v -> v >= 0) extremes)
        in
        Alcotest.(check bool) "every bound encodes" true
          (List.for_all Option.is_some ubs);
        distinct "bound" ubs;
        (* |min_int| overflows the gcd step: that constant has no
           canonical form, every other one does. *)
        let c0s =
          List.map (fun c0 -> key_of (problem ~c0 ~coeff:3 ~ub:9)) extremes
        in
        Alcotest.(check int) "every constant but min_int encodes"
          (List.length extremes - 1)
          (List.length (List.filter Option.is_some c0s));
        distinct "constant" c0s);
  ]

(* --- pairing edge cases pinned ------------------------------------------ *)

(* Equations whose terms stress how a common level's two instances are
   paired: the sink before the source, one instance only, a level
   beyond the common loops, an empty range ahead of an overflowing
   product or pair, and [min_int] at either instance.  Each line is one
   equation: [Banerjee.interval] and [Gcd_test.test] under each
   direction at level 1 ([*] elsewhere), then [Hierarchy.directions]
   with fuel unset and with fuel 5 (its vectors or exception, and the
   fuel left).  The expected lines were taken before the three tests
   shared one pairing fold; an [Intx.Overflow] reads [!op]. *)
let pairing_cases () =
  let s l ub = var ~side:`Src ~level:l (Printf.sprintf "i%d" l) ub
  and d l ub = var ~side:`Dst ~level:l (Printf.sprintf "j%d" l) ub in
  [
    ("dst-first", 1, [| 5 |], Depeq.make 1 [ (-3, d 1 5); (4, var "x" 2); (2, s 1 5) ]);
    ("src-only, dst-only", 2, [| 4; 6 |],
      Depeq.make (-2) [ (2, s 1 4); (-3, d 2 6); (1, var "x" 3) ]);
    ("beyond n_common", 1, [| 3 |],
      Depeq.make (-1) [ (1, s 1 3); (-1, d 1 3); (5, s 2 2); (-2, d 3 4) ]);
    ("empty <, then level-0 overflow", 1, [| 0 |],
      Depeq.make 0 [ (1, s 1 0); (1, d 1 0); (max_int, var "x" 2) ]);
    ("empty <, then pair overflow", 2, [| 0; 2 |],
      Depeq.make 0 [ (1, s 1 0); (1, d 1 0); (max_int, s 2 2); (1, d 2 2) ]);
    ("min_int at src", 1, [| 1 |], Depeq.make 1 [ (min_int, s 1 1); (1, d 1 1) ]);
    ("min_int at dst", 1, [| 1 |], Depeq.make 1 [ (1, s 1 1); (min_int, d 1 1) ]);
    ("min_int at a leading dst", 1, [| 1 |],
      Depeq.make 1 [ (min_int, d 1 1); (3, s 1 1) ]);
    ("min_int between dst and src", 1, [| 1 |],
      Depeq.make 1 [ (3, d 1 1); (min_int, var "x" 1); (5, s 1 1) ]);
  ]

let pairing_outcome (_, n, common_ubs, eq) =
  let guard f =
    try f () with
    | Dlz_base.Intx.Overflow op -> "!" ^ op
    | Dlz_base.Budget.Exhausted _ -> "exhausted"
  in
  let at_1 dir l = if l = 1 then dir else Dirvec.Star in
  let tests =
    List.map
      (fun dir ->
        let dirs = at_1 dir in
        Printf.sprintf "%s:%s/%s" (Dirvec.dir_to_string dir)
          (guard (fun () ->
               Format.asprintf "%a" Ivl.pp (Banerjee.interval ~dirs eq)))
          (guard (fun () -> Verdict.to_string (Gcd_test.test ~dirs eq))))
      all_dirs
  in
  let walk fuel =
    let budget = Dlz_base.Budget.create ?fuel () in
    let p = Problem.numeric_of_equations ~n_common:n ~common_ubs [ eq ] in
    let vs =
      guard (fun () ->
          String.concat ","
            (List.map Dirvec.to_string
               (Dirvec.Set.to_list (Hierarchy.directions ~budget p))))
    in
    match Dlz_base.Budget.remaining_fuel budget with
    | None -> vs
    | Some f -> Printf.sprintf "%s fuel:%d" vs f
  in
  String.concat " " (tests @ [ walk None; walk (Some 5) ])

let pairing_expected =
  [
    "<:[-14, 6]/dependent =:[-4, 9]/dependent >:[-1, 19]/dependent <=:[-14, 9]/dependent >=:[-4, 19]/dependent !=:[-14, 19]/dependent *:[-14, 19]/dependent (<),(=),(>) (<),(=),(>) fuel:1";
    "<:[-20, 9]/dependent =:[-20, 9]/dependent >:[-18, 9]/dependent <=:[-20, 9]/dependent >=:[-20, 9]/dependent !=:[-20, 9]/dependent *:[-20, 9]/dependent (<, <),(<, =),(<, >),(=, <),(=, =),(=, >),(>, <),(>, =),(>, >) exhausted fuel:0";
    "<:[-12, 8]/dependent =:[-9, 9]/dependent >:[-8, 12]/dependent <=:[-12, 9]/dependent >=:[-9, 12]/dependent !=:[-12, 12]/dependent *:[-12, 12]/dependent (<),(=),(>) (<),(=),(>) fuel:1";
    "<:[]/dependent =:!mul/dependent >:[]/dependent <=:!mul/dependent >=:!mul/dependent !=:[]/dependent *:!mul/dependent !mul !mul fuel:4";
    "<:!mul/dependent =:!mul/dependent >:!mul/dependent <=:!mul/dependent >=:!mul/dependent !=:!mul/dependent *:!mul/dependent !mul !mul fuel:4";
    "<:[2, 2]/!neg =:[-4611686018427387902, 1]/independent >:[-4611686018427387903, -4611686018427387903]/!neg <=:[-4611686018427387902, 2]/!neg >=:[-4611686018427387903, 1]/!neg !=:[-4611686018427387903, 2]/!neg *:[-4611686018427387903, 2]/!neg !neg !neg fuel:4";
    "<:[-4611686018427387903, -4611686018427387903]/dependent =:[-4611686018427387902, 1]/independent >:[2, 2]/dependent <=:[-4611686018427387903, 1]/dependent >=:[-4611686018427387902, 2]/dependent !=:[-4611686018427387903, 2]/dependent *:[-4611686018427387903, 2]/dependent   fuel:1";
    "<:[-4611686018427387903, -4611686018427387903]/!neg =:[-4611686018427387900, 1]/independent >:[4, 4]/!neg <=:[-4611686018427387903, 1]/!neg >=:[-4611686018427387900, 4]/!neg !=:[-4611686018427387903, 4]/!neg *:[-4611686018427387903, 4]/!neg !neg !neg fuel:4";
    "<:[-4611686018427387900, 4]/dependent =:[-4611686018427387903, 9]/!neg >:[-4611686018427387898, 6]/dependent <=:[-4611686018427387903, 9]/dependent >=:[-4611686018427387903, 9]/dependent !=:[-4611686018427387900, 6]/dependent *:[-4611686018427387903, 9]/dependent !neg !neg fuel:2";
  ]

let pairing_units =
  [
    Alcotest.test_case "edge cases answer as pinned" `Quick (fun () ->
        Alcotest.(check (list string)) "outcomes" pairing_expected
          (List.map pairing_outcome (pairing_cases ())));
  ]

let () =
  Alcotest.run "dlz_deptest"
    [
      ("depeq", depeq_units);
      ("dirvec", dirvec_units);
      ("dirvec-props", List.map QCheck_alcotest.to_alcotest dirvec_props);
      ("soundness", List.map QCheck_alcotest.to_alcotest soundness_props);
      ("exactness", List.map QCheck_alcotest.to_alcotest exactness_props);
      ("directional", dirs_units);
      ("directional-props", List.map QCheck_alcotest.to_alcotest dirs_props);
      ("fm", fm_units);
      ("fm-props", List.map QCheck_alcotest.to_alcotest fm_props);
      ("exact", exact_units);
      ("exact-props", List.map QCheck_alcotest.to_alcotest exact_props);
      ("hierarchy", hierarchy_units);
      ("hierarchy-props", List.map QCheck_alcotest.to_alcotest hierarchy_props);
      ("hier-ref", hierarchy_reference_units);
      ( "hier-ref-props",
        List.map QCheck_alcotest.to_alcotest hierarchy_reference_props );
      ("dvset", dvset_units);
      ("dvset-props", List.map QCheck_alcotest.to_alcotest dvset_props);
      ("misc", misc_units);
      ("closed-form-props", List.map QCheck_alcotest.to_alcotest closed_form_props);
      ("pair-exhaustive", pair_exhaustive_units);
      ("pairing-pins", pairing_units);
      ("lambda", lambda_units);
      ("lambda-props", List.map QCheck_alcotest.to_alcotest lambda_props);
      ("omega", omega_units);
      ("omega-props", List.map QCheck_alcotest.to_alcotest omega_props);
      ("rangevec", rangevec_units);
      ("keybuf", keybuf_units);
    ]
