(* Tests for dlz_passes: loop normalization, induction-variable
   substitution, storage association, pointer conversion, and the
   interpreter used to prove all of them semantics-preserving. *)

module F77 = Dlz_frontend.F77_parser
module C_parser = Dlz_frontend.C_parser
module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr
module Normalize = Dlz_passes.Normalize
module Induction = Dlz_passes.Induction
module Storage = Dlz_passes.Storage
module Pointers = Dlz_passes.Pointers
module Interp = Dlz_passes.Interp
module Pipeline = Dlz_passes.Pipeline

let traces_equal ?syms a b =
  Interp.equivalent (Interp.run ?syms a) (Interp.run ?syms b)

let check_preserves ?syms name before after =
  Alcotest.(check bool) (name ^ ": trace preserved") true
    (traces_equal ?syms before after)

(* --- interpreter ------------------------------------------------------------- *)

let interp_units =
  [
    Alcotest.test_case "records reads then write" `Quick (fun () ->
        let prog =
          F77.parse
            "      REAL A(0:3)\n\
            \      A(1) = A(2)\n\
            \      END\n"
        in
        match Interp.run prog with
        | [ { Interp.kind = Interp.Read; addr = 2; _ };
            { Interp.kind = Interp.Write; addr = 1; _ } ] -> ()
        | t -> Alcotest.failf "unexpected trace of length %d" (List.length t));
    Alcotest.test_case "column-major addressing" `Quick (fun () ->
        let prog =
          F77.parse
            "      REAL A(0:9,0:9)\n\
            \      A(3,2) = 0\n\
            \      END\n"
        in
        match Interp.run prog with
        | [ { Interp.addr = 23; _ } ] -> ()
        | [ { Interp.addr = n; _ } ] -> Alcotest.failf "addr %d, wanted 23" n
        | _ -> Alcotest.fail "trace length");
    Alcotest.test_case "EQUIVALENCE shares a block" `Quick (fun () ->
        let prog =
          F77.parse
            "      REAL A(0:9,0:9)\n\
            \      REAL B(0:4,0:19)\n\
            \      EQUIVALENCE (A, B)\n\
            \      A(0,1) = 0\n\
            \      B(0,2) = 0\n\
            \      END\n"
        in
        match Interp.run prog with
        | [ { Interp.block = b1; addr = 10; _ }; { Interp.block = b2; addr = 10; _ } ]
          ->
            Alcotest.(check string) "same block" b1 b2
        | _ -> Alcotest.fail "expected two writes to the same cell");
    Alcotest.test_case "EQUIVALENCE anchors share an address" `Quick
      (fun () ->
        let prog eq =
          F77.parse
            ("      REAL A(0:9)\n\
              \      REAL B(0:9)\n\
              \      EQUIVALENCE " ^ eq
            ^ "\n\
               \      A(2) = 0\n\
               \      B(0) = 0\n\
               \      END\n")
        in
        (match Interp.run (prog "(A(2), B)") with
        | [ { Interp.block = b1; addr = 2; _ }; { Interp.block = b2; addr = 2; _ } ]
          ->
            Alcotest.(check string) "same block" b1 b2
        | _ -> Alcotest.fail "expected two writes to the same cell");
        match Interp.run (prog "(A(2), B), (A, B)") with
        | exception Interp.Error (Interp.Conflicting_equivalence "B") -> ()
        | _ -> Alcotest.fail "expected a conflicting EQUIVALENCE");
    Alcotest.test_case "subscript out of range detected" `Quick (fun () ->
        let prog =
          F77.parse "      REAL A(0:3)\n      A(7) = 0\n      END\n"
        in
        match Interp.run prog with
        | exception
            Interp.Error
              (Interp.Subscript_out_of_range { array = "A"; sub = 7; _ }) ->
            ()
        | _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "loops with negative step" `Quick (fun () ->
        let prog =
          F77.parse
            "      REAL A(0:4)\n\
            \      DO I = 4, 0, -1\n\
            \      A(I) = 0\n\
            \      ENDDO\n\
            \      END\n"
        in
        Alcotest.(check int) "five writes" 5 (List.length (Interp.run prog)));
    Alcotest.test_case "symbol values" `Quick (fun () ->
        let prog =
          F77.parse
            "      REAL A(0:99)\n\
            \      DO I = 0, N-1\n\
            \      A(I) = 0\n\
            \      ENDDO\n\
            \      END\n"
        in
        Alcotest.(check int) "N=7 writes" 7
          (List.length (Interp.run ~syms:[ ("N", 7) ] prog)));
  ]

(* --- normalization ------------------------------------------------------------ *)

let normalize_units =
  [
    Alcotest.test_case "shifts lower bound" `Quick (fun () ->
        let before =
          F77.parse
            "      REAL A(0:9)\n\
            \      DO I = 1, 5\n\
            \      A(I) = A(I-1)\n\
            \      ENDDO\n\
            \      END\n"
        in
        let after = Normalize.all before in
        (match after.Ast.body with
        | [ Ast.Do { lo = Expr.Const 0; hi = Expr.Const 4; step = Expr.Const 1; _ } ] ->
            ()
        | _ -> Alcotest.fail "not normalized");
        check_preserves "shift" before after);
    Alcotest.test_case "step > 1" `Quick (fun () ->
        let before =
          F77.parse
            "      REAL A(0:99)\n\
            \      DO I = 0, 90, 10\n\
            \      A(I) = 1\n\
            \      ENDDO\n\
            \      END\n"
        in
        let after = Normalize.all before in
        (match after.Ast.body with
        | [ Ast.Do { hi = Expr.Const 9; step = Expr.Const 1; _ } ] -> ()
        | _ -> Alcotest.fail "trip count wrong");
        check_preserves "step" before after);
    Alcotest.test_case "negative step" `Quick (fun () ->
        let before =
          F77.parse
            "      REAL A(0:9)\n\
            \      DO I = 8, 0, -2\n\
            \      A(I) = 1\n\
            \      ENDDO\n\
            \      END\n"
        in
        let after = Normalize.all before in
        (match after.Ast.body with
        | [ Ast.Do { hi = Expr.Const 4; step = Expr.Const 1; _ } ] -> ()
        | _ -> Alcotest.fail "trip count wrong");
        check_preserves "downward" before after);
    Alcotest.test_case "empty loop deleted" `Quick (fun () ->
        let before =
          F77.parse
            "      REAL A(0:9)\n\
            \      DO I = 5, 2\n\
            \      A(I) = 1\n\
            \      ENDDO\n\
            \      END\n"
        in
        let after = Normalize.all before in
        Alcotest.(check int) "gone" 0 (List.length after.Ast.body));
    Alcotest.test_case "PARAMETER folding" `Quick (fun () ->
        let before =
          F77.parse
            "      PARAMETER (N=5)\n\
            \      REAL A(0:N)\n\
            \      DO I = 0, N-1\n\
            \      A(I) = N\n\
            \      ENDDO\n\
            \      END\n"
        in
        let after = Normalize.all before in
        match after.Ast.body with
        | [ Ast.Do { hi = Expr.Const 4; _ } ] -> ()
        | _ -> Alcotest.fail "parameter not folded");
    Alcotest.test_case "symbolic bounds survive" `Quick (fun () ->
        let before =
          F77.parse
            "      REAL A(0:99)\n\
            \      DO I = 1, N\n\
            \      A(I) = 1\n\
            \      ENDDO\n\
            \      END\n"
        in
        let after = Normalize.all before in
        (match after.Ast.body with
        | [ Ast.Do { lo = Expr.Const 0; _ } ] -> ()
        | _ -> Alcotest.fail "not normalized");
        check_preserves ~syms:[ ("N", 6) ] "symbolic" before after);
    Alcotest.test_case "simplify canonicalizes" `Quick (fun () ->
        let before =
          F77.parse
            "      REAL A(0:199)\n\
            \      A(10*(1+2)+(1+3)) = 0\n\
            \      END\n"
        in
        let after = Normalize.simplify before in
        match after.Ast.body with
        | [ Ast.Assign { lhs = { subs = [ Expr.Const 34 ]; _ }; _ } ] -> ()
        | _ -> Alcotest.fail "not simplified");
  ]

(* --- induction variables -------------------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let ib_src =
  "      REAL B(0:99)\n\
  \      INTEGER IB\n\
  \      IB = -1\n\
  \      DO I = 0, 3\n\
  \      DO J = 0, 4\n\
  \      IB = IB + 1\n\
  \      B(IB) = B(IB) + 1\n\
  \      ENDDO\n\
  \      ENDDO\n\
  \      END\n"

let induction_units =
  [
    Alcotest.test_case "two-loop closed form" `Quick (fun () ->
        let before = Normalize.all (F77.parse ib_src) in
        Alcotest.(check (list string)) "candidate" [ "IB" ]
          (Induction.candidates before);
        let after = Induction.substitute before in
        Alcotest.(check bool) "IB gone from the body" true
          (not (contains (Ast.to_string after) "IB ="));
        check_preserves "closed form" before after);
    Alcotest.test_case "rejects use before increment" `Quick (fun () ->
        let src =
          "      REAL B(0:99)\n\
          \      INTEGER IB\n\
          \      IB = 0\n\
          \      DO I = 0, 3\n\
          \      B(IB+1) = 0\n\
          \      IB = IB + 1\n\
          \      ENDDO\n\
          \      END\n"
        in
        let p = Normalize.all (F77.parse src) in
        Alcotest.(check (list string)) "no candidates" []
          (Induction.candidates p));
    Alcotest.test_case "rejects double increment" `Quick (fun () ->
        let src =
          "      REAL B(0:99)\n\
          \      INTEGER IB\n\
          \      IB = 0\n\
          \      DO I = 0, 3\n\
          \      IB = IB + 1\n\
          \      IB = IB + 1\n\
          \      B(IB) = 0\n\
          \      ENDDO\n\
          \      END\n"
        in
        let p = Normalize.all (F77.parse src) in
        Alcotest.(check (list string)) "no candidates" []
          (Induction.candidates p));
    Alcotest.test_case "rejects non-constant init" `Quick (fun () ->
        let src =
          "      REAL B(0:99)\n\
          \      INTEGER IB\n\
          \      IB = M\n\
          \      DO I = 0, 3\n\
          \      IB = IB + 1\n\
          \      B(IB) = 0\n\
          \      ENDDO\n\
          \      END\n"
        in
        let p = Normalize.all (F77.parse src) in
        Alcotest.(check (list string)) "no candidates" []
          (Induction.candidates p));
    Alcotest.test_case "rejects use after the nest" `Quick (fun () ->
        let src =
          "      REAL B(0:99)\n\
          \      INTEGER IB\n\
          \      IB = -1\n\
          \      DO I = 0, 3\n\
          \      IB = IB + 1\n\
          \      B(IB) = 0\n\
          \      ENDDO\n\
          \      B(IB) = 1\n\
          \      END\n"
        in
        let p = Normalize.all (F77.parse src) in
        Alcotest.(check (list string)) "no candidates" []
          (Induction.candidates p));
    Alcotest.test_case "negative step induction" `Quick (fun () ->
        let src =
          "      REAL B(0:99)\n\
          \      INTEGER IB\n\
          \      IB = 50\n\
          \      DO I = 0, 3\n\
          \      IB = IB - 2\n\
          \      B(IB) = 0\n\
          \      ENDDO\n\
          \      END\n"
        in
        let before = Normalize.all (F77.parse src) in
        let after = Induction.substitute before in
        Alcotest.(check (list string)) "recognized" [ "IB" ]
          (Induction.candidates before);
        check_preserves "negative step" before after);
    Alcotest.test_case "three-loop symbolic bounds (paper IB)" `Quick
      (fun () ->
        let before =
          Normalize.all (F77.parse Dlz_driver.Fragments.ib_program)
        in
        let after = Induction.substitute before in
        check_preserves
          ~syms:[ ("II", 2); ("JJ", 3); ("KK", 4); ("Q", 1) ]
          "paper IB" before after);
  ]

(* --- storage association: EQUIVALENCE ------------------------------------------- *)

(* Arrays whose declaration [after] dropped but still names. *)
let dangling before after =
  let names = ref [] in
  let rec expr = function
    | Expr.Call (f, args) ->
        names := f :: !names;
        List.iter expr args
    | Expr.Neg a -> expr a
    | Expr.Bin (_, a, b) ->
        expr a;
        expr b
    | Expr.Const _ | Expr.Var _ -> ()
  in
  Ast.iter_assigns after ~f:(fun ~loops s ->
      List.iter (fun (_, lo, hi, step) -> List.iter expr [ lo; hi; step ]) loops;
      List.iter
        (fun ((r : Ast.aref), _) -> names := r.name :: !names)
        (Ast.assign_refs s));
  List.sort_uniq compare
    (List.filter
       (fun n ->
         Ast.find_array before n <> None && Ast.find_array after n = None)
       !names)

(* [src] is refused through the one front door, with [msg]. *)
let refused msg src =
  match Pipeline.load `F77 src with
  | exception (Storage.Error _ as e) ->
      Alcotest.(check (option string)) "refused"
        (Some ("storage association: " ^ msg))
        (Dlz_passes.Input_error.describe e)
  | _ -> Alcotest.fail "expected a storage refusal"

(* A(I+1) names a 2-D array with one subscript. *)
let wrong_rank_src =
  "      REAL A(0:9,0:9), B(0:99)\n\
  \      EQUIVALENCE (A, B)\n\
  \      DO 1 I = 0, 8\n\
   1     B(I) = A(I+1)\n\
  \      END\n"

let equivalence_units =
  [
    Alcotest.test_case "wrong-rank reference refused" `Quick (fun () ->
        refused "A is referenced with the wrong number of subscripts"
          wrong_rank_src);
    Alcotest.test_case "undeclared EQUIVALENCE name refused" `Quick
      (fun () ->
        refused "C in COMMON or EQUIVALENCE is not a declared array"
          "      REAL A(0:9), B(0:9)\n\
          \      EQUIVALENCE (A, B, C)\n\
          \      DO 1 I = 0, 9\n\
           1     A(I) = B(I)\n\
          \      END\n");
    Alcotest.test_case "no reference outlives its declaration" `Quick
      (fun () ->
        List.iter
          (fun src ->
            let before = F77.parse src in
            Alcotest.(check (list string)) "dangling" []
              (dangling before (Pipeline.prepare_program before)))
          [
            "      REAL A(0:9), B(0:9), C(0:19)\n\
             \      COMMON /X/ A, B\n\
             \      EQUIVALENCE (C, A)\n\
             \      DO 1 I = 0, 8\n\
              1     B(I) = C(I+11)\n\
             \      END\n";
            "      REAL A(0:9), B(0:9), M(0:1)\n\
             \      EQUIVALENCE (A, B, M)\n\
             \      DO 1 I = 0, M(1)\n\
              1     A(I) = B(I)\n\
             \      END\n";
            Dlz_driver.Fragments.equivalence_2d;
            Dlz_driver.Fragments.equivalence_4d;
          ]);
    Alcotest.test_case "full linearization (2-D)" `Quick (fun () ->
        let before = F77.parse Dlz_driver.Fragments.equivalence_2d in
        let before = Normalize.all before in
        let after, groups = Storage.associate before in
        (match groups with
        | [ g ] ->
            Alcotest.(check int) "keeps 0 dims" 0 g.Storage.kept_dims;
            Alcotest.(check (list string)) "members" [ "A"; "B" ]
              g.Storage.members
        | _ -> Alcotest.fail "expected one group");
        (* A and B declarations replaced by the linearized array. *)
        Alcotest.(check bool) "A gone" true (Ast.find_array after "A" = None);
        check_preserves "2-D aliasing" before after);
    Alcotest.test_case "partial linearization (4-D)" `Quick (fun () ->
        let before =
          Normalize.all (F77.parse Dlz_driver.Fragments.equivalence_4d)
        in
        let after, groups = Storage.associate before in
        (match groups with
        | [ g ] -> Alcotest.(check int) "keeps 2 dims" 2 g.Storage.kept_dims
        | _ -> Alcotest.fail "expected one group");
        (* IFUN is opaque to the interpreter but deterministic, so the
           trace comparison still holds. *)
        check_preserves "4-D aliasing" before after);
    Alcotest.test_case "mismatched totals fold fully" `Quick (fun () ->
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:9)\n\
               \      REAL B(0:19)\n\
               \      EQUIVALENCE (A, B)\n\
               \      DO 1 I = 0, 9\n\
                1     A(I) = B(I+1)\n\
               \      END\n")
        in
        let after, groups = Storage.associate before in
        (match groups with
        | [ g ] -> Alcotest.(check int) "fully folded" 0 g.Storage.kept_dims
        | _ -> Alcotest.fail "expected one group");
        Alcotest.(check bool) "B gone" true (Ast.find_array after "B" = None);
        check_preserves "mismatched totals" before after);
    Alcotest.test_case "offset anchors fold fully" `Quick (fun () ->
        (* The second anchor puts B before A, so the folded array starts
           at B. *)
        List.iter
          (fun eq ->
            let before =
              Normalize.all
                (F77.parse
                   ("      REAL A(0:9)\n\
                    \      REAL B(0:9)\n\
                    \      EQUIVALENCE " ^ eq
                  ^ "\n\
                     \      DO 1 I = 0, 7\n\
                      1     A(I) = B(I) + A(I+2)\n\
                     \      END\n"))
            in
            let after, groups = Storage.associate before in
            (match groups with
            | [ g ] ->
                Alcotest.(check int) (eq ^ " fully folded") 0
                  g.Storage.kept_dims
            | _ -> Alcotest.fail "expected one group");
            check_preserves eq before after)
          [ "(A(2), B)"; "(A, B(3))"; "(A(1), B(1))" ]);
    Alcotest.test_case "three-member group linearizes together" `Quick
      (fun () ->
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:9,0:9)\n\
               \      REAL B(0:4,0:19)\n\
               \      REAL C(0:99)\n\
               \      EQUIVALENCE (A, B, C)\n\
               \      DO 1 I = 0, 4\n\
               \      DO 1 J = 0, 9\n\
                1     A(I,J) = B(I,2*J+1) + C(I+10*J)\n\
               \      END\n")
        in
        let after, groups = Storage.associate before in
        (match groups with
        | [ g ] ->
            Alcotest.(check (list string)) "members" [ "A"; "B"; "C" ]
              g.Storage.members;
            Alcotest.(check int) "fully folded" 0 g.Storage.kept_dims
        | _ -> Alcotest.fail "one group");
        check_preserves "three members" before after);
    Alcotest.test_case "groups sharing a member fold together" `Quick
      (fun () ->
        (* C starts at B(2), which is A(2). *)
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:9), B(0:9), C(0:9)\n\
               \      EQUIVALENCE (A, B), (B(2), C)\n\
               \      DO 1 I = 0, 7\n\
                1     A(I) = B(I+1) + C(I)\n\
               \      END\n")
        in
        let after, groups = Storage.associate before in
        (match groups with
        | [ g ] ->
            Alcotest.(check (list string)) "members" [ "A"; "B"; "C" ]
              g.Storage.members;
            Alcotest.(check int) "fully folded" 0 g.Storage.kept_dims
        | _ -> Alcotest.fail "expected one merged group");
        check_preserves "shared member" before after);
    Alcotest.test_case "two inlined calls with the same actual" `Quick
      (fun () ->
        let before =
          Normalize.all
            (Dlz_passes.Inline.expand
               (F77.parse_units
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
                  \      END\n"))
        in
        let after, groups = Storage.associate before in
        (match groups with
        | [ g ] ->
            Alcotest.(check (list string)) "members" [ "A"; "B__1"; "C__2" ]
              g.Storage.members
        | _ -> Alcotest.fail "expected one merged group");
        check_preserves "same actual twice" before after);
    Alcotest.test_case "conflicting anchors refused" `Quick (fun () ->
        (* The groups place C at A(2) and at A(3). *)
        refused "EQUIVALENCE places C at two addresses"
          "      REAL A(0:9), B(0:9), C(0:9)\n\
          \      EQUIVALENCE (A, B), (B(2), C), (A(3), C)\n\
          \      A(1) = C(1)\n\
          \      END\n";
        (* A lone array is never folded, but its anchors must agree. *)
        refused "EQUIVALENCE places A at two addresses"
          "      REAL A(0:9)\n\
          \      EQUIVALENCE (A(1), A)\n\
          \      A(1) = A(2)\n\
          \      END\n");
    Alcotest.test_case "undecidable lowest base refused" `Quick (fun () ->
        (* B starts at N+1-K, and K may lie outside B: neither a base
           nor minus the total size provably lies below both. *)
        refused "cannot place A"
          "      REAL A(0:N-1,0:3), B(0:9)\n\
          \      EQUIVALENCE (A(1,1), B(K))\n\
          \      A(1,1) = B(1)\n\
          \      END\n");
    Alcotest.test_case "undecidable lowest base folds below every base"
      `Quick (fun () ->
        (* B starts at N-4, before or after A depending on N: the area
           starts at minus the total size, -(4N+10), below both. *)
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:N-1,0:3), B(0:9)\n\
               \      EQUIVALENCE (A(1,1), B(5))\n\
               \      DO 1 I = 0, 3\n\
                1     A(1,I) = B(I+1)\n\
               \      END\n")
        in
        let after, groups = Storage.associate before in
        (match groups with
        | [ g ] ->
            Alcotest.(check (list string)) "bases" [ "4*N + 10"; "5*N + 6" ]
              (List.map Dlz_symbolic.Poly.to_string g.Storage.bases)
        | _ -> Alcotest.fail "expected one group");
        (* The fold starts the area lower than the interpreter, which
           knows N and starts it at its lowest base: the same trace,
           every address moved by one shift. *)
        let shifted n =
          match
            ( Interp.normalized (Interp.run ~syms:[ ("N", n) ] before),
              Interp.normalized (Interp.run ~syms:[ ("N", n) ] after) )
          with
          | ((_, x, _) :: _ as a), ((_, y, _) :: _ as b)
            when List.length a = List.length b ->
              List.for_all2
                (fun (ba, xa, ka) (bb, xb, kb) ->
                  ba = bb && ka = kb && xb - xa = y - x)
                a b
          | _ -> false
        in
        List.iter
          (fun n ->
            Alcotest.(check bool)
              (Printf.sprintf "trace shifted at N=%d" n)
              true (shifted n))
          [ 2; 4; 9 ]);
    Alcotest.test_case "same symbolic shape keeps the trailing dim" `Quick
      (fun () ->
        (* Anchored at their first elements, written out or not. *)
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:N-1,M), B(0:N-1,M)\n\
               \      EQUIVALENCE (A(0,1), B)\n\
               \      DO 1 J = 1, M\n\
               \      DO 1 I = 0, N-2\n\
                1     A(I,J) = B(I+1,J)\n\
               \      END\n")
        in
        let after, groups = Storage.associate before in
        (match groups with
        | [ g ] ->
            Alcotest.(check (list string)) "members" [ "A"; "B" ]
              g.Storage.members;
            Alcotest.(check int) "keeps 1 dim" 1 g.Storage.kept_dims
        | _ -> Alcotest.fail "expected one group");
        Alcotest.(check bool) "B gone" true (Ast.find_array after "B" = None);
        check_preserves ~syms:[ ("N", 5); ("M", 3) ] "same symbolic shape"
          before after);
    Alcotest.test_case "different symbolic extents fold" `Quick (fun () ->
        (* Neither N nor M provably dominates: the sum of the ends. *)
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:N-1), B(0:M-1)\n\
               \      EQUIVALENCE (A, B)\n\
               \      DO 1 I = 0, N-2\n\
                1     A(I) = B(I+1)\n\
               \      END\n")
        in
        let after, groups = Storage.associate before in
        (match groups with
        | [ g ] ->
            Alcotest.(check int) "fully folded" 0 g.Storage.kept_dims;
            Alcotest.(check (list string)) "bases" [ "0"; "0" ]
              (List.map Dlz_symbolic.Poly.to_string g.Storage.bases)
        | _ -> Alcotest.fail "expected one group");
        Alcotest.(check bool) "LIN1(0:N+M-1)" true
          (contains (Ast.to_string after) "LIN1(0:N+M-1)");
        check_preserves ~syms:[ ("N", 5); ("M", 7) ] "different extents"
          before after);
    Alcotest.test_case "offset anchor folds" `Quick (fun () ->
        (* B's first element is A(1): one array 0:N, B(I+1) at I+2. *)
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:N-1), B(0:N-1)\n\
               \      EQUIVALENCE (A(1), B)\n\
               \      DO 1 I = 0, N-2\n\
                1     A(I) = B(I+1)\n\
               \      END\n")
        in
        let after, groups = Storage.associate before in
        (match groups with
        | [ g ] ->
            Alcotest.(check (list string)) "members" [ "A"; "B" ]
              g.Storage.members;
            Alcotest.(check int) "fully folded" 0 g.Storage.kept_dims
        | _ -> Alcotest.fail "expected one group");
        Alcotest.(check bool) "B gone" true (Ast.find_array after "B" = None);
        check_preserves ~syms:[ ("N", 5) ] "offset anchor" before after);
    Alcotest.test_case "1-based trailing dims shift" `Quick (fun () ->
        (* Trailing dims with lo=1 must be rebased to 0. *)
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:3,5)\n\
               \      REAL B(0:1,2,5)\n\
               \      EQUIVALENCE (A, B)\n\
               \      DO K = 1, 5\n\
               \      A(2,K) = B(0,1,K)\n\
               \      ENDDO\n\
               \      END\n")
        in
        let after, groups = Storage.associate before in
        (match groups with
        | [ g ] -> Alcotest.(check int) "keeps 1 dim" 1 g.Storage.kept_dims
        | _ -> Alcotest.fail "group");
        check_preserves "rebased" before after);
  ]

(* --- pointer conversion -------------------------------------------------------- *)

let pointer_units =
  [
    Alcotest.test_case "paper fragment lowers and matches C semantics" `Quick
      (fun () ->
        let lowered =
          Pointers.lower (C_parser.parse Dlz_driver.Fragments.c_pointers)
        in
        (* 100-cell array, 10x5 accesses: 50 writes and 50 reads. *)
        let trace = Interp.run lowered in
        Alcotest.(check int) "100 events" 100 (List.length trace);
        (* Normalization preserves the trace. *)
        check_preserves "normalize after lowering" lowered
          (Normalize.all lowered));
    Alcotest.test_case "pointer in int context rejected" `Quick (fun () ->
        let p = C_parser.parse "float d[10];\nfloat *p;\nint i;\ni = p;\n" in
        match Pointers.lower p with
        | exception Pointers.Unsupported _ -> ()
        | _ -> Alcotest.fail "expected Unsupported");
    Alcotest.test_case "cross-array bound rejected" `Quick (fun () ->
        let p =
          C_parser.parse
            "float d[10];\nfloat e[10];\nfloat *p;\n\
             for (p = d; p < e + 5; p++) *p = 0;\n"
        in
        match Pointers.lower p with
        | exception Pointers.Unsupported _ -> ()
        | _ -> Alcotest.fail "expected Unsupported");
    Alcotest.test_case "plain integer loops pass through" `Quick (fun () ->
        let p =
          C_parser.parse
            "float d[10];\nint i;\nfor (i = 0; i < 10; i++) d[i] = i;\n"
        in
        let lowered = Pointers.lower p in
        Alcotest.(check int) "10 writes" 10 (List.length (Interp.run lowered)));
    Alcotest.test_case "straight-line pointer reassignment" `Quick (fun () ->
        let p =
          C_parser.parse
            "float d[10];\nfloat *p;\nint i;\n\
             p = d + 2;\n*p = 1;\np = p + 3;\n*(p+1) = 2;\n"
        in
        let lowered = Pointers.lower p in
        match Interp.run lowered with
        | [ { Interp.addr = 2; _ }; { Interp.addr = 6; _ } ] -> ()
        | _ -> Alcotest.fail "wrong addresses");
  ]

(* --- forward linearization -------------------------------------------------- *)

let linearize_units =
  [
    Alcotest.test_case "2-D array flattens column-major" `Quick (fun () ->
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:9,0:9)\n\
               \      DO I = 0, 4\n\
               \      DO J = 0, 9\n\
               \      A(I,J) = A(I+5,J)\n\
               \      ENDDO\n\
               \      ENDDO\n\
               \      END\n")
        in
        let after = Dlz_passes.Linearize.program before in
        (match Ast.find_array after "A" with
        | Some a -> Alcotest.(check int) "rank 1" 1 (List.length a.Ast.a_dims)
        | None -> Alcotest.fail "A missing");
        Alcotest.(check bool) "subscript is I+10*J" true
          (contains (Ast.to_string after) "A(I+10*J)");
        check_preserves "2-D flatten" before after);
    Alcotest.test_case "1-based bounds rebase" `Quick (fun () ->
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(3,4)\n\
               \      A(2,3) = A(1,1)\n\
               \      END\n")
        in
        let after = Dlz_passes.Linearize.program before in
        check_preserves "rebase" before after;
        (* element (2,3) is (2-1) + (3-1)*3 = 7 *)
        Alcotest.(check bool) "A(7)" true (contains (Ast.to_string after) "A(7)"));
    Alcotest.test_case "arity-mismatched refs block the rewrite" `Quick
      (fun () ->
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:9,0:9)\n\
               \      A(3,4) = A(7)\n\
               \      END\n")
        in
        let after = Dlz_passes.Linearize.program before in
        match Ast.find_array after "A" with
        | Some a -> Alcotest.(check int) "still rank 2" 2 (List.length a.Ast.a_dims)
        | None -> Alcotest.fail "A missing");
    Alcotest.test_case "EQUIVALENCE members left to the aliasing pass" `Quick
      (fun () ->
        let before = Normalize.all (F77.parse Dlz_driver.Fragments.equivalence_2d) in
        let after = Dlz_passes.Linearize.program before in
        match Ast.find_array after "A" with
        | Some a -> Alcotest.(check int) "untouched" 2 (List.length a.Ast.a_dims)
        | None -> Alcotest.fail "A missing");
    Alcotest.test_case "linearize then reshape round-trips (paper intro)" `Quick
      (fun () ->
        (* Multi-dimensional program -> linearized -> delinearized: the
           recovered shape must preserve the trace and the analysis. *)
        let original =
          Normalize.all
            (F77.parse
               "      REAL C(0:9,0:9)\n\
               \      DO I = 0, 4\n\
               \      DO J = 0, 9\n\
               \      C(I,J) = C(I+5,J)\n\
               \      ENDDO\n\
               \      ENDDO\n\
               \      END\n")
        in
        let linearized = Dlz_passes.Linearize.program original in
        Alcotest.(check bool) "linearized form is the paper program" true
          (contains (Ast.to_string linearized) "C(I+10*J)");
        let reshaped, plans =
          Dlz_core.Reshape.apply ~env:Dlz_symbolic.Assume.empty linearized
        in
        Alcotest.(check int) "one plan" 1 (List.length plans);
        check_preserves "round trip" original reshaped;
        (* And the independence verdict survives every stage. *)
        List.iter
          (fun p ->
            Alcotest.(check int) "independent" 0
              (List.length (Dlz_engine.Analyze.deps_of_program p)))
          [ original; linearized; reshaped ]);
    Alcotest.test_case "reshape splits a constant offset per stride" `Quick
      (fun () ->
        (* Stencil offsets: 11 = 1 + 10 and 12 = 2 + 10 carry into the
           outer dimension, which exact division alone left in the
           inner index (out of range, so no plan). *)
        let linear =
          F77.parse
            "      REAL A(0:99)\n\
            \      DO J = 0, 7\n\
            \      DO I = 0, 7\n\
            \      A(I+10*J+11) = A(I+10*J+1) + A(I+10*J+12)\n\
            \      ENDDO\n\
            \      ENDDO\n\
            \      END\n"
        in
        let reshaped, plans =
          Dlz_core.Reshape.apply ~env:Dlz_symbolic.Assume.empty linear
        in
        Alcotest.(check (list (list int))) "A becomes A(0:9,0:9)"
          [ [ 10; 10 ] ]
          (List.map
             (fun (p : Dlz_core.Reshape.plan) ->
               List.map Dlz_symbolic.Poly.const_value p.extents)
             plans);
        Alcotest.(check bool) "offsets split per dimension" true
          (contains (Ast.to_string reshaped) "A(1+I,1+J) = A(1+I,J)+A(2+I,1+J)");
        check_preserves "constant offset" linear reshaped);
  ]

let reshape p = Dlz_core.Reshape.apply ~env:Dlz_symbolic.Assume.empty p

(* References in DO bounds are references too: each pass rewrites them
   with the rest, or the declaration and the bound disagree. *)
let do_bound_units =
  let stencil bound =
    "      REAL A(0:99)\n\
    \      INTEGER K(0:9)\n\
    \      DO J = 0, 7\n\
    \      DO I = 0, 7\n\
    \      A(I+10*J+11) = A(I+10*J+1) + A(I+10*J+12)\n\
    \      ENDDO\n\
    \      ENDDO\n\
    \      DO L = 0, " ^ bound ^ "\n\
    \      K(L) = 0\n\
    \      ENDDO\n\
    \      END\n"
  in
  [
    Alcotest.test_case "Linearize rewrites a DO-bound read" `Quick (fun () ->
        let before =
          Normalize.all
            (F77.parse
               "      INTEGER M(0:1,0:1)\n\
               \      INTEGER K(0:9)\n\
               \      DO I = 0, 1\n\
               \      DO J = 0, 1\n\
               \      M(I,J) = I+2*J\n\
               \      ENDDO\n\
               \      ENDDO\n\
               \      DO I = 0, M(1,1)\n\
               \      K(I) = M(1,0)\n\
               \      ENDDO\n\
               \      END\n")
        in
        let after = Dlz_passes.Linearize.program before in
        Alcotest.(check bool) "bound is M(3)" true
          (contains (Ast.to_string after) "DO I = 0, M(3)");
        check_preserves "DO-bound linearize" before after);
    Alcotest.test_case "Reshape rewrites a DO-bound read" `Quick (fun () ->
        let before = F77.parse (stencil "A(23)") in
        let after, plans = reshape before in
        Alcotest.(check int) "one plan" 1 (List.length plans);
        Alcotest.(check bool) "bound is A(3,2)" true
          (contains (Ast.to_string after) "DO L = 0, A(3,2)");
        check_preserves "DO-bound reshape" before after);
    Alcotest.test_case "a DO-bound read that does not decompose drops the plan"
      `Quick (fun () ->
        let before = F77.parse (stencil "A(K(0))") in
        let after, plans = reshape before in
        Alcotest.(check int) "no plan" 0 (List.length plans);
        Alcotest.(check string) "unchanged" (Ast.to_string before)
          (Ast.to_string after));
  ]

(* Every kernel through each pass in turn, in the order the pipeline
   runs them and then the paper's round trip: each stage's trace must be
   the lowered kernel's. *)
let corpus_stage_units =
  List.map
    (fun (k : Dlz_corpus.Polybench.kernel) ->
      Alcotest.test_case k.k_name `Quick (fun () ->
          let lowered = Pointers.lower (C_parser.parse k.k_source) in
          let expected = Interp.normalized (Interp.run lowered) in
          ignore
            (List.fold_left
               (fun p (stage, pass) ->
                 let p = pass p in
                 if Interp.normalized (Interp.run p) <> expected then
                   Alcotest.failf "%s: trace changed by %s" k.k_name stage;
                 p)
               lowered
               [
                 ("Normalize.all", Normalize.all);
                 ("Induction.substitute", Induction.substitute);
                 ("Storage.associate", fun p -> fst (Storage.associate p));
                 ("Normalize.simplify", Normalize.simplify);
                 ("Linearize.program", Dlz_passes.Linearize.program);
                 ("Reshape.apply", fun p -> fst (reshape p));
               ])))
    Dlz_corpus.Polybench.kernels

(* --- storage association: COMMON ------------------------------------------------ *)

let bases (a : Storage.area) =
  List.combine a.Storage.members
    (List.map Dlz_symbolic.Poly.to_string a.Storage.bases)

let common_units =
  [
    Alcotest.test_case "members become offsets in one block array" `Quick
      (fun () ->
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:9), B(0:4)\n\
               \      COMMON /BLK/ A, B\n\
               \      DO I = 0, 4\n\
               \      A(I) = B(I)\n\
               \      ENDDO\n\
               \      END\n")
        in
        let after, areas = Storage.associate before in
        (match areas with
        | [ b ] ->
            Alcotest.(check (list (pair string string)))
              "bases" [ ("A", "0"); ("B", "10") ]
              (bases b)
        | _ -> Alcotest.fail "one block expected");
        Alcotest.(check bool) "B ref at base 10" true
          (contains (Ast.to_string after) "CBBLK(10+I)");
        check_preserves "common" before after);
    Alcotest.test_case "cross-member collision becomes visible" `Quick
      (fun () ->
        (* Writing past A's end lands in B: without sequence association
           the analyzer would call this independent. *)
        let src =
          "      REAL A(0:9), B(0:9)\n\
          \      COMMON /BLK/ A, B\n\
          \      DO I = 0, 9\n\
          \      A(I+10) = B(I)\n\
          \      ENDDO\n\
          \      END\n"
        in
        (* NB: A(I+10) is out of A's declared range; sequence association
           legitimizes it as an access to the block. *)
        let prog, _ = Storage.associate (Normalize.all (F77.parse src)) in
        let deps = Dlz_engine.Analyze.deps_of_program (Normalize.simplify prog) in
        Alcotest.(check bool) "dependence found" true (deps <> []));
    Alcotest.test_case "multi-dimensional members linearize column-major"
      `Quick (fun () ->
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:2,0:1), B(0:3)\n\
               \      COMMON /C2/ A, B\n\
               \      A(1,1) = B(2)\n\
               \      END\n")
        in
        let after, _ = Storage.associate before in
        (* A(1,1) = 1 + 1*3 = 4; B(2) = 6 + 2 = 8. *)
        Alcotest.(check bool) "A(1,1) -> CBC2(4)" true
          (contains (Ast.to_string after) "CBC2(4)");
        Alcotest.(check bool) "B(2) -> CBC2(8)" true
          (contains (Ast.to_string after) "CBC2(8)");
        check_preserves "md members" before after);
    Alcotest.test_case "symbolic member bounds fold" `Quick (fun () ->
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:N), B(0:4)\n\
               \      COMMON /BLK/ A, B\n\
               \      A(1) = B(2)\n\
               \      END\n")
        in
        let after, areas = Storage.associate before in
        (match areas with
        | [ a ] ->
            Alcotest.(check (list (pair string string)))
              "bases" [ ("A", "0"); ("B", "N + 1") ] (bases a);
            Alcotest.(check int) "fully folded" 0 a.Storage.kept_dims
        | _ -> Alcotest.fail "one block expected");
        Alcotest.(check bool) "CBBLK(0:N+5)" true
          (contains (Ast.to_string after) "CBBLK(0:N+5)");
        Alcotest.(check bool) "A gone" true (Ast.find_array after "A" = None);
        check_preserves ~syms:[ ("N", 3) ] "symbolic block" before after);
    Alcotest.test_case "EQUIVALENCE joining two blocks refused" `Quick
      (fun () ->
        refused "one area joins COMMON blocks /X/ and /Y/"
          "      REAL A(0:3), B(1:6)\n\
          \      COMMON /X/ A\n\
          \      COMMON /Y/ B\n\
          \      EQUIVALENCE (B(3), A)\n\
          \      DO 1 I = 0, 2\n\
           1     B(I+2) = A(I)\n\
          \      END\n");
    Alcotest.test_case "EQUIVALENCE onto a member joins the block" `Quick
      (fun () ->
        (* C overlays A and runs on into B. *)
        let before =
          Normalize.all
            (F77.parse
               "      REAL A(0:9), B(0:9), C(0:19)\n\
               \      COMMON /X/ A, B\n\
               \      EQUIVALENCE (C, A)\n\
               \      DO 1 I = 0, 8\n\
                1     B(I) = C(I+11)\n\
               \      END\n")
        in
        let after, areas = Storage.associate before in
        (match areas with
        | [ a ] ->
            Alcotest.(check string) "area" "CBX" a.Storage.repl;
            Alcotest.(check (list (pair string string)))
              "bases" [ ("A", "0"); ("B", "10"); ("C", "0") ]
              (bases a)
        | _ -> Alcotest.fail "one folded area expected");
        Alcotest.(check bool) "C(I+11) -> CBX(I+11)" true
          (contains (Ast.to_string after) "CBX(I+11)");
        Alcotest.(check bool) "COMMON lists CBX" true
          (List.mem (Ast.Common ("X", [ "CBX" ])) after.Ast.decls);
        check_preserves "EQUIVALENCE onto a member" before after);
  ]

(* --- procedure inlining / argument association --------------------------------- *)

let inline_units =
  let expand src = Dlz_passes.Inline.expand (F77.parse_units src) in
  [
    Alcotest.test_case "same-shape dummy renames to the actual" `Quick
      (fun () ->
        let inlined =
          expand
            "      REAL A(0:9)\n\
            \      CALL F(A)\n\
            \      END\n\
            \      SUBROUTINE F(D)\n\
            \      REAL D(0:9)\n\
            \      DO I = 0, 9\n\
            \      D(I) = I\n\
            \      ENDDO\n\
            \      END\n"
        in
        Alcotest.(check bool) "writes A" true
          (contains (Ast.to_string inlined) "A(I__1) = I__1");
        (* Semantics: same trace as the hand-inlined version. *)
        let direct =
          F77.parse
            "      REAL A(0:9)\n\
            \      DO I = 0, 9\n\
            \      A(I) = I\n\
            \      ENDDO\n\
            \      END\n"
        in
        check_preserves "inline" direct inlined);
    Alcotest.test_case "shape mismatch becomes EQUIVALENCE (paper assoc)"
      `Quick (fun () ->
        let inlined =
          expand
            "      REAL A(0:9,0:9)\n\
            \      CALL G(A)\n\
            \      END\n\
            \      SUBROUTINE G(B)\n\
            \      REAL B(0:4,0:19)\n\
            \      DO 1 I = 0, 4\n\
            \      DO 1 J = 0, 9\n\
             1     B(I,2*J+1) = B(I,2*J)\n\
            \      END\n"
        in
        Alcotest.(check bool) "has EQUIVALENCE" true
          (List.exists
             (function Ast.Equivalence _ -> true | _ -> false)
             inlined.Ast.decls);
        (* Through the standard pipeline the association linearizes and
           the odd/even columns are proven independent. *)
        let prog = Pipeline.prepare_program inlined in
        Alcotest.(check int) "independent" 0
          (List.length (Dlz_engine.Analyze.deps_of_program prog)));
    Alcotest.test_case "scalar dummies substitute" `Quick (fun () ->
        let inlined =
          expand
            "      REAL A(0:99)\n\
            \      CALL S(A, 5)\n\
            \      END\n\
            \      SUBROUTINE S(D, N)\n\
            \      REAL D(0:99)\n\
            \      DO I = 0, N\n\
            \      D(I) = N\n\
            \      ENDDO\n\
            \      END\n"
        in
        Alcotest.(check bool) "bound substituted" true
          (contains (Ast.to_string inlined) "DO I__1 = 0, 5"));
    Alcotest.test_case "assigned scalar dummy rejected" `Quick (fun () ->
        match
          expand
            "      CALL S(X)\n\
            \      END\n\
            \      SUBROUTINE S(N)\n\
            \      N = 1\n\
            \      END\n"
        with
        | exception Dlz_passes.Inline.Unsupported _ -> ()
        | _ -> Alcotest.fail "expected Unsupported");
    Alcotest.test_case "recursion rejected" `Quick (fun () ->
        match
          expand
            "      CALL R()\n\
            \      END\n\
            \      SUBROUTINE R()\n\
            \      CALL R()\n\
            \      END\n"
        with
        | exception Dlz_passes.Inline.Unsupported _ -> ()
        | _ -> Alcotest.fail "expected Unsupported");
    Alcotest.test_case "two call sites freshen independently" `Quick
      (fun () ->
        let inlined =
          expand
            "      REAL A(0:9), B(0:9)\n\
            \      CALL F(A)\n\
            \      CALL F(B)\n\
            \      END\n\
            \      SUBROUTINE F(D)\n\
            \      REAL D(0:9)\n\
            \      DO I = 0, 9\n\
            \      D(I) = I\n\
            \      ENDDO\n\
            \      END\n"
        in
        let text = Ast.to_string inlined in
        Alcotest.(check bool) "first site" true (contains text "A(I__1)");
        Alcotest.(check bool) "second site" true (contains text "B(I__2)"));
  ]

(* Pipeline end-to-end trace preservation on all paper fragments. *)
let pipeline_units =
  let preserved name ?syms src =
    Alcotest.test_case name `Quick (fun () ->
        let before = F77.parse src in
        let after = Pipeline.prepare_program before in
        check_preserves ?syms name before after)
  in
  [
    preserved "eq1 program" Dlz_driver.Fragments.eq1_program;
    preserved "fig3 program" Dlz_driver.Fragments.fig3_program;
    preserved "mhl program" Dlz_driver.Fragments.mhl_program;
    preserved "equivalence 2d" Dlz_driver.Fragments.equivalence_2d;
    preserved "equivalence 4d" Dlz_driver.Fragments.equivalence_4d;
    preserved "ib program"
      ~syms:[ ("II", 2); ("JJ", 2); ("KK", 3); ("Q", 1) ]
      Dlz_driver.Fragments.ib_program;
    preserved "symbolic program" ~syms:[ ("N", 4) ]
      Dlz_driver.Fragments.symbolic_program;
  ]

let () =
  Alcotest.run "dlz_passes"
    [
      ("interp", interp_units);
      ("normalize", normalize_units);
      ("induction", induction_units);
      ("equivalence", equivalence_units);
      ("pointers", pointer_units);
      ("linearize", linearize_units);
      ("do-bounds", do_bound_units);
      ("stages", corpus_stage_units);
      ("common", common_units);
      ("inline", inline_units);
      ("pipeline", pipeline_units);
    ]
