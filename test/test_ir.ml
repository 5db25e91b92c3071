(* Tests for dlz_ir: expressions, affine forms and access extraction. *)

module Expr = Dlz_ir.Expr
module Ast = Dlz_ir.Ast
module Affine = Dlz_ir.Affine
module Access = Dlz_ir.Access
module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume

let expr = Alcotest.testable Expr.pp Expr.equal

(* --- expressions ----------------------------------------------------------- *)

let expr_units =
  [
    Alcotest.test_case "fold_consts" `Quick (fun () ->
        Alcotest.check expr "2+3*4" (Expr.Const 14)
          (Expr.fold_consts
             Expr.(Bin (Add, Const 2, Bin (Mul, Const 3, Const 4))));
        Alcotest.check expr "x*1" (Expr.Var "X")
          (Expr.fold_consts Expr.(Bin (Mul, Var "X", Const 1)));
        Alcotest.check expr "x*0" (Expr.Const 0)
          (Expr.fold_consts Expr.(Bin (Mul, Var "X", Const 0)));
        Alcotest.check expr "x+0" (Expr.Var "X")
          (Expr.fold_consts Expr.(Bin (Add, Var "X", Const 0)));
        (* inexact division stays symbolic *)
        Alcotest.check expr "7/2 symbolic"
          Expr.(Bin (Div, Const 7, Const 2))
          (Expr.fold_consts Expr.(Bin (Div, Const 7, Const 2)));
        Alcotest.check expr "8/2 folds" (Expr.Const 4)
          (Expr.fold_consts Expr.(Bin (Div, Const 8, Const 2))));
    Alcotest.test_case "free_vars" `Quick (fun () ->
        Alcotest.(check (list string)) "sorted unique" [ "I"; "J" ]
          (Expr.free_vars
             Expr.(Bin (Add, Var "J", Bin (Mul, Var "I", Var "J"))));
        Alcotest.(check (list string)) "call args counted" [ "K" ]
          (Expr.free_vars (Expr.Call ("F", [ Expr.Var "K" ]))));
    Alcotest.test_case "subst" `Quick (fun () ->
        let e = Expr.(Bin (Add, Var "I", Bin (Mul, Const 10, Var "J"))) in
        Alcotest.check expr "replace I"
          Expr.(Bin (Add, Const 3, Bin (Mul, Const 10, Var "J")))
          (Expr.subst "I" (Expr.Const 3) e));
    Alcotest.test_case "eval" `Quick (fun () ->
        let env = function "I" -> 2 | "J" -> 3 | _ -> 0 in
        Alcotest.(check int) "i+10j" 32
          (Expr.eval env Expr.(Bin (Add, Var "I", Bin (Mul, Const 10, Var "J"))));
        Alcotest.(check int) "division truncates" 2
          (Expr.eval env Expr.(Bin (Div, Const 7, Var "J"))));
    Alcotest.test_case "precedence printing" `Quick (fun () ->
        Alcotest.(check string) "mul over add" "I+10*J"
          (Expr.to_string Expr.(Bin (Add, Var "I", Bin (Mul, Const 10, Var "J"))));
        Alcotest.(check string) "parens kept" "(I+1)*J"
          (Expr.to_string Expr.(Bin (Mul, Bin (Add, Var "I", Const 1), Var "J")));
        Alcotest.(check string) "sub rhs parens" "I-(J-1)"
          (Expr.to_string Expr.(Bin (Sub, Var "I", Bin (Sub, Var "J", Const 1)))));
    Alcotest.test_case "of_poly round-trips by eval" `Quick (fun () ->
        let p =
          Poly.add
            (Poly.scale 3 (Poly.mul (Poly.sym "N") (Poly.sym "N")))
            (Poly.sub (Poly.sym "K") (Poly.const 7))
        in
        let e = Expr.of_poly p in
        let env = function "N" -> 5 | "K" -> 2 | _ -> 0 in
        Alcotest.(check int) "same value" (Poly.eval env p) (Expr.eval env e));
    Alcotest.test_case "of_poly renders min_int coefficients" `Quick
      (fun () ->
        let env = function "N" -> 1 | _ -> 0 in
        List.iter
          (fun p ->
            Alcotest.(check int) (Poly.to_string p) (Poly.eval env p)
              (Expr.eval env (Expr.of_poly p)))
          [
            Poly.const min_int;
            Poly.scale min_int (Poly.sym "N");
            Poly.add (Poly.sym "N") (Poly.const min_int);
            Poly.add (Poly.scale min_int (Poly.sym "N")) (Poly.const 5);
          ]);
  ]

(* --- affine forms ---------------------------------------------------------- *)

let is_ij v = v = "I" || v = "J"

let affine_units =
  [
    Alcotest.test_case "of_expr linear" `Quick (fun () ->
        match
          Affine.of_expr ~is_loop_var:is_ij
            Expr.(
              Bin
                ( Add,
                  Bin (Add, Var "I", Bin (Mul, Const 10, Var "J")),
                  Const 5 ))
        with
        | None -> Alcotest.fail "expected affine"
        | Some f ->
            Alcotest.(check bool) "coeff I" true
              (Poly.equal (Affine.coeff f "I") Poly.one);
            Alcotest.(check bool) "coeff J" true
              (Poly.equal (Affine.coeff f "J") (Poly.const 10));
            Alcotest.(check bool) "konst" true
              (Poly.equal (Affine.konst f) (Poly.const 5)));
    Alcotest.test_case "symbolic coefficients" `Quick (fun () ->
        (* N*N*J + I with N a free scalar. *)
        match
          Affine.of_expr ~is_loop_var:is_ij
            Expr.(
              Bin
                ( Add,
                  Bin (Mul, Bin (Mul, Var "N", Var "N"), Var "J"),
                  Var "I" ))
        with
        | None -> Alcotest.fail "expected affine"
        | Some f ->
            Alcotest.(check bool) "coeff J = N^2" true
              (Poly.equal (Affine.coeff f "J")
                 (Poly.mul (Poly.sym "N") (Poly.sym "N"))));
    Alcotest.test_case "nonlinear rejected" `Quick (fun () ->
        Alcotest.(check bool) "I*J" true
          (Affine.of_expr ~is_loop_var:is_ij
             Expr.(Bin (Mul, Var "I", Var "J"))
          = None);
        Alcotest.(check bool) "call" true
          (Affine.of_expr ~is_loop_var:is_ij (Expr.Call ("F", [])) = None);
        Alcotest.(check bool) "division" true
          (Affine.of_expr ~is_loop_var:is_ij
             Expr.(Bin (Div, Var "I", Const 2))
          = None));
    Alcotest.test_case "rename and subst_var" `Quick (fun () ->
        let f =
          Option.get
            (Affine.of_expr ~is_loop_var:is_ij
               Expr.(Bin (Add, Var "I", Var "J")))
        in
        let g = Affine.rename (fun v -> v ^ "1") f in
        Alcotest.(check (list string)) "renamed" [ "I1"; "J1" ]
          (Affine.loop_vars g);
        (* I := J + 2 merges. *)
        let h =
          Affine.subst_var "I"
            (Affine.add (Affine.term Poly.one "J") (Affine.of_int 2))
            f
        in
        Alcotest.(check bool) "merged coeff 2J" true
          (Poly.equal (Affine.coeff h "J") (Poly.const 2));
        Alcotest.(check bool) "constant 2" true
          (Poly.equal (Affine.konst h) (Poly.const 2)));
    Alcotest.test_case "rename collision rejected" `Quick (fun () ->
        let f =
          Option.get
            (Affine.of_expr ~is_loop_var:is_ij
               Expr.(Bin (Add, Var "I", Var "J")))
        in
        match Affine.rename (fun _ -> "Z") f with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* qcheck: conversion preserves evaluation. *)
let gen_affine_expr =
  QCheck.Gen.(
    let var = oneofl [ Expr.Var "I"; Expr.Var "J"; Expr.Var "N" ] in
    let rec go depth =
      if depth = 0 then
        oneof [ var; map (fun c -> Expr.Const c) (int_range (-9) 9) ]
      else
        frequency
          [
            (2, var);
            (2, map (fun c -> Expr.Const c) (int_range (-9) 9));
            ( 3,
              let* a = go (depth - 1) in
              let* b = go (depth - 1) in
              let* op = oneofl [ Expr.Add; Expr.Sub; Expr.Mul ] in
              return (Expr.Bin (op, a, b)) );
            (1, map (fun e -> Expr.Neg e) (go (depth - 1)));
          ]
    in
    go 3)

let affine_props =
  [
    QCheck.Test.make ~name:"of_expr preserves evaluation" ~count:500
      (QCheck.make ~print:Expr.to_string gen_affine_expr)
      (fun e ->
        match Affine.of_expr ~is_loop_var:is_ij e with
        | None -> true
        | Some f ->
            let envs =
              [ (0, 0, 1); (2, 3, 4); (-1, 5, 2); (7, -2, -3) ]
            in
            List.for_all
              (fun (i, j, nv) ->
                let scal = function
                  | "I" -> i
                  | "J" -> j
                  | "N" -> nv
                  | _ -> 0
                in
                Expr.eval scal e
                = Affine.eval ~loop:scal ~sym:(function "N" -> nv | _ -> 0) f)
              envs);
    QCheck.Test.make ~name:"to_expr round-trips by eval" ~count:500
      (QCheck.make ~print:Expr.to_string gen_affine_expr)
      (fun e ->
        match Affine.of_expr ~is_loop_var:is_ij e with
        | None -> true
        | Some f ->
            let e' = Affine.to_expr f in
            List.for_all
              (fun (i, j, nv) ->
                let scal = function
                  | "I" -> i
                  | "J" -> j
                  | "N" -> nv
                  | _ -> 0
                in
                Expr.eval scal e = Expr.eval scal e')
              [ (0, 0, 1); (2, 3, 4); (-1, 5, 2) ]);
  ]

(* --- access extraction ------------------------------------------------------ *)

let c = Expr.const
let v = Expr.var

let mk_prog body decls = { Ast.p_name = "T"; decls; body }

let access_units =
  [
    Alcotest.test_case "basic extraction" `Quick (fun () ->
        let decls =
          [
            Ast.Array
              { a_name = "A"; a_kind = Ast.Real;
                a_dims = [ { lo = c 0; hi = c 99 } ] };
          ]
        in
        let prog =
          mk_prog
            [
              Ast.do_ "I" (c 0) (c 9)
                [
                  Ast.assign (Ast.ref_ "A" [ v "I" ])
                    (Expr.Call ("A", [ Expr.(Bin (Add, v "I", c 1)) ]));
                ];
            ]
            decls
        in
        let accs, _ = Access.of_program prog in
        Alcotest.(check int) "two accesses" 2 (List.length accs);
        let w = List.hd accs in
        Alcotest.(check bool) "first is write" true (w.Access.rw = `Write);
        Alcotest.(check int) "one loop" 1 (List.length w.Access.loops);
        match w.Access.subs with
        | [ Access.Aff f ] ->
            Alcotest.(check bool) "coeff" true
              (Poly.equal (Affine.coeff f "I") Poly.one)
        | _ -> Alcotest.fail "expected one affine subscript");
    Alcotest.test_case "opaque subscript" `Quick (fun () ->
        let decls =
          [
            Ast.Array
              { a_name = "A"; a_kind = Ast.Real;
                a_dims = [ { lo = c 0; hi = c 99 } ] };
          ]
        in
        let prog =
          mk_prog
            [
              Ast.do_ "I" (c 0) (c 9)
                [
                  Ast.assign
                    (Ast.ref_ "A" [ Expr.Call ("IFUN", [ c 10 ]) ])
                    (c 0);
                ];
            ]
            decls
        in
        let accs, _ = Access.of_program prog in
        match (List.hd accs).Access.subs with
        | [ Access.Opaque ] -> ()
        | _ -> Alcotest.fail "expected opaque subscript");
    Alcotest.test_case "unnormalized loop rejected" `Quick (fun () ->
        let prog =
          mk_prog
            [ Ast.do_ "I" (c 1) (c 9) [ Ast.assign (Ast.ref_ "A" [ v "I" ]) (c 0) ] ]
            [
              Ast.Array
                { a_name = "A"; a_kind = Ast.Real;
                  a_dims = [ { lo = c 0; hi = c 99 } ] };
            ]
        in
        match Access.of_program prog with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected Failure");
    Alcotest.test_case "rectangular extension of triangular bound" `Quick
      (fun () ->
        (* DO I = 0,9 / DO J = 0, I: J's bound becomes 9. *)
        let prog =
          mk_prog
            [
              Ast.do_ "I" (c 0) (c 9)
                [
                  Ast.do_ "J" (c 0) (v "I")
                    [ Ast.assign (Ast.ref_ "A" [ v "J" ]) (c 0) ];
                ];
            ]
            [
              Ast.Array
                { a_name = "A"; a_kind = Ast.Real;
                  a_dims = [ { lo = c 0; hi = c 99 } ] };
            ]
        in
        let accs, _ = Access.of_program prog in
        let a = List.hd accs in
        match a.Access.loops with
        | [ _; j ] ->
            Alcotest.(check bool) "J ub is 9" true
              (Poly.equal j.Access.l_ub (Poly.const 9))
        | _ -> Alcotest.fail "expected two loops");
    Alcotest.test_case "nonempty-range assumptions derived" `Quick (fun () ->
        (* DO I = 0, KK-1 gives KK >= 1. *)
        let prog =
          mk_prog
            [
              Ast.do_ "I" (c 0)
                Expr.(Bin (Sub, v "KK", c 1))
                [ Ast.assign (Ast.ref_ "A" [ v "I" ]) (c 0) ];
            ]
            [
              Ast.Array
                { a_name = "A"; a_kind = Ast.Real;
                  a_dims = [ { lo = c 0; hi = c 99 } ] };
            ]
        in
        let _, env = Access.of_program prog in
        Alcotest.(check (option int)) "KK >= 1" (Some 1)
          (Assume.lower_bound "KK" env));
    Alcotest.test_case "common_loops" `Quick (fun () ->
        let mk_loops vars =
          List.map (fun v -> { Access.l_var = v; l_ub = Poly.const 9 }) vars
        in
        let acc vars =
          {
            Access.acc_id = 0; stmt_id = 0; stmt_name = "S1"; array = "A";
            rw = `Read; loops = mk_loops vars; subs = [];
          }
        in
        Alcotest.(check int) "prefix of length 2" 2
          (List.length (Access.common_loops (acc [ "I"; "J"; "K" ])
                          (acc [ "I"; "J"; "L" ])));
        Alcotest.(check int) "no common" 0
          (List.length (Access.common_loops (acc [ "I" ]) (acc [ "X" ]))));
  ]

(* --- ast helpers ------------------------------------------------------------ *)

let ast_units =
  [
    Alcotest.test_case "assign_refs order" `Quick (fun () ->
        let s =
          Ast.assign
            (Ast.ref_ "A" [ v "I" ])
            Expr.(Bin (Add, Call ("B", [ v "I" ]), Var "Q"))
        in
        let refs = Ast.assign_refs s in
        (* write + lhs subscript read (I) + rhs reads (B, I, Q) *)
        Alcotest.(check int) "five refs" 5 (List.length refs);
        (match refs with
        | (r, `Write) :: _ -> Alcotest.(check string) "lhs first" "A" r.Ast.name
        | _ -> Alcotest.fail "expected write first"));
    Alcotest.test_case "map_stmts bottom-up" `Quick (fun () ->
        let prog =
          mk_prog
            [ Ast.do_ "I" (c 0) (c 4) [ Ast.assign (Ast.scalar_ref "X") (c 1) ] ]
            []
        in
        let prog' =
          Ast.map_stmts
            (function
              | Ast.Assign a -> Ast.Assign { a with rhs = c 2 }
              | s -> s)
            prog
        in
        match prog'.Ast.body with
        | [ Ast.Do { body = [ Ast.Assign { rhs = Expr.Const 2; _ } ]; _ } ] -> ()
        | _ -> Alcotest.fail "rewrite missed nested assign");
    Alcotest.test_case "map_exprs and map_refs positions and order" `Quick
      (fun () ->
        (* DO I = B(0), C(D(1)), 2 / A(E(I)) = F(I) *)
        let call f args = Expr.Call (f, args) in
        let prog =
          mk_prog
            [
              Ast.do_ ~step:(c 2) "I"
                (call "B" [ c 0 ])
                (call "C" [ call "D" [ c 1 ] ])
                [ Ast.assign (Ast.ref_ "A" [ call "E" [ v "I" ] ])
                    (call "F" [ v "I" ]) ];
            ]
            []
        in
        let seen = ref [] in
        let note name loops = seen := (name, List.length loops) :: !seen in
        ignore
          (List.map
             (Ast.map_exprs (fun ~loops e ->
                  note (Expr.to_string e) loops;
                  e))
             prog.Ast.body);
        Alcotest.(check (list (pair string int))) "expressions"
          [ ("B(0)", 0); ("C(D(1))", 0); ("2", 0); ("E(I)", 1); ("F(I)", 1) ]
          (List.rev !seen);
        seen := [];
        let renamed =
          Ast.map_refs
            (fun ~loops r ->
              note r.Ast.name loops;
              { r with Ast.name = String.lowercase_ascii r.Ast.name })
            prog
        in
        Alcotest.(check (list (pair string int))) "references, inner first"
          [ ("B", 0); ("D", 0); ("C", 0); ("E", 1); ("A", 1); ("F", 1) ]
          (List.rev !seen);
        Alcotest.(check string) "rewritten in place"
          "    DO I = b(0), c(d(1)), 2\n      a(e(I)) = f(I)\n    ENDDO"
          (Format.asprintf "%a" Ast.pp_stmt (List.hd renamed.Ast.body)));
    Alcotest.test_case "count_lines counts rendering" `Quick (fun () ->
        let prog = mk_prog [ Ast.assign (Ast.scalar_ref "X") (c 1) ] [] in
        Alcotest.(check int) "3 lines" 3 (Ast.count_lines prog));
    Alcotest.test_case "find_array" `Quick (fun () ->
        let d =
          Ast.Array
            { a_name = "A"; a_kind = Ast.Real;
              a_dims = [ { lo = c 0; hi = c 9 } ] }
        in
        let prog = mk_prog [] [ d ] in
        Alcotest.(check bool) "found" true (Ast.find_array prog "A" <> None);
        Alcotest.(check bool) "missing" true (Ast.find_array prog "B" = None));
  ]

let () =
  Alcotest.run "dlz_ir"
    [
      ("expr", expr_units);
      ("affine", affine_units);
      ("affine-props", List.map QCheck_alcotest.to_alcotest affine_props);
      ("access", access_units);
      ("ast", ast_units);
    ]
