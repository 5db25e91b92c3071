module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr
module Prng = Dlz_base.Prng

type profile = {
  p_depth : int * int;  (* nest depth range *)
  p_trip : int * int;  (* per-loop trip count (ub) range *)
  p_stmts : int * int;  (* statements per program *)
  p_coeffs : int array;  (* the "large magnitude" coefficient pool *)
}

(* Depth 1–3, trips ≤ 4, coefficients in [-12, 12]: the historical
   [random] distribution. *)
let default_profile =
  {
    p_depth = (1, 3);
    p_trip = (1, 4);
    p_stmts = (1, 3);
    p_coeffs = [| -12; -10; -4; -2; 2; 4; 10; 12 |];
  }

(* Deeper nests with trip-count-scale strides: subscripts frequently
   look hand-linearized (mixed coefficient magnitudes), the family the
   differential oracle wants in bulk. *)
let linearized_profile =
  {
    p_depth = (2, 3);
    p_trip = (2, 5);
    p_stmts = (1, 3);
    p_coeffs = [| -30; -20; -12; -5; 5; 12; 20; 30 |];
  }

(* An affine subscript over the loop variables, with its value hull. *)
let random_subscript pr g loops =
  (* loops: (var, ub) list *)
  let terms =
    List.filter_map
      (fun (v, ub) ->
        match Prng.int g 4 with
        | 0 -> None
        | 1 -> Some (1, v, ub)
        | 2 -> Some (Prng.int_in g (-3) 3, v, ub)
        | _ -> Some (Prng.choose g pr.p_coeffs, v, ub))
      loops
  in
  let c0 = Prng.int_in g (-6) 6 in
  let expr =
    List.fold_left
      (fun acc (c, v, _) ->
        if c = 0 then acc
        else
          let t =
            if c = 1 then Expr.Var v
            else Expr.Bin (Expr.Mul, Expr.Const c, Expr.Var v)
          in
          Expr.Bin (Expr.Add, acc, t))
      (Expr.Const c0) terms
  in
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (c, _, ub) ->
        if c >= 0 then (lo, hi + (c * ub)) else (lo + (c * ub), hi))
      (c0, c0) terms
  in
  (Expr.fold_consts expr, lo, hi)

let random_profiled pr g =
  let dlo, dhi = pr.p_depth and tlo, thi = pr.p_trip in
  let depth = Prng.int_in g dlo dhi in
  let loop_names = [| "I"; "J"; "K" |] in
  let loops =
    List.init depth (fun i -> (loop_names.(i), Prng.int_in g tlo thi))
  in
  let arrays = if Prng.bool g then [ "A" ] else [ "A"; "B" ] in
  let hulls = Hashtbl.create 4 in
  List.iter (fun a -> Hashtbl.replace hulls a (0, 0)) arrays;
  let slo, shi = pr.p_stmts in
  let nstmts = Prng.int_in g slo shi in
  let mk_ref () =
    let a = Prng.choose g (Array.of_list arrays) in
    let e, lo, hi = random_subscript pr g loops in
    let clo, chi = Hashtbl.find hulls a in
    Hashtbl.replace hulls a (min clo lo, max chi hi);
    Expr.Call (a, [ e ])
  in
  let stmts =
    List.init nstmts (fun _ ->
        let lhs =
          match mk_ref () with
          | Expr.Call (a, subs) -> { Ast.name = a; subs }
          | _ -> assert false
        in
        let rhs =
          match Prng.int g 3 with
          | 0 -> mk_ref ()
          | 1 -> Expr.Bin (Expr.Add, mk_ref (), Expr.Const 1)
          | _ -> Expr.Bin (Expr.Add, mk_ref (), mk_ref ())
        in
        Ast.assign lhs rhs)
  in
  let body =
    List.fold_right
      (fun (v, ub) inner -> [ Ast.do_ v (Expr.Const 0) (Expr.Const ub) inner ])
      loops stmts
  in
  let decls =
    List.map
      (fun a ->
        let lo, hi = Hashtbl.find hulls a in
        Ast.Array
          {
            Ast.a_name = a;
            a_kind = Ast.Real;
            a_dims = [ { Ast.lo = Expr.Const lo; hi = Expr.Const hi } ];
          })
      arrays
  in
  { Ast.p_name = "RANDOM"; decls; body }

let random g = random_profiled default_profile g
