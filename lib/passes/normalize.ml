module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr

(* [v := e] in [s]; an inner loop redefining [v] shadows it in its body. *)
let subst_stmt v e s =
  Ast.map_exprs
    (fun ~loops x ->
      if List.exists (fun (w, _, _, _) -> String.equal w v) loops then x
      else Expr.subst v e x)
    s

let loop (p : Ast.program) =
  let rec go = function
    | (Ast.Assign _ | Ast.Continue _) as s -> [ s ]
    | Ast.Do d -> (
        let body = List.concat_map go d.body in
        let lo = Expr.fold_consts d.lo
        and hi = Expr.fold_consts d.hi
        and step = Expr.fold_consts d.step in
        match Expr.to_const step with
        | Some 0 -> failwith "Normalize.loop: zero step"
        | Some 1 when Expr.to_const lo = Some 0 ->
            (* Already normalized. *)
            (match (Expr.to_const lo, Expr.to_const hi) with
            | Some l, Some h when h < l -> []
            | _ -> [ Ast.Do { d with lo; hi; step; body } ])
        | Some s ->
            (* var = lo + s*var', var' in [0, (hi-lo)/s] (floor). *)
            let trips_m1 =
              match (Expr.to_const lo, Expr.to_const hi) with
              | Some l, Some h -> Expr.Const (Dlz_base.Numth.fdiv (h - l) s)
              | _ ->
                  Expr.fold_consts
                    (Expr.Bin
                       (Expr.Div, Expr.Bin (Expr.Sub, hi, lo), Expr.Const s))
            in
            (match Expr.to_const trips_m1 with
            | Some t when t < 0 -> []
            | _ ->
                let replacement =
                  Expr.fold_consts
                    (Expr.Bin
                       ( Expr.Add,
                         lo,
                         Expr.Bin (Expr.Mul, Expr.Const s, Expr.Var d.var) ))
                in
                let body =
                  if Expr.equal replacement (Expr.Var d.var) then body
                  else List.map (subst_stmt d.var replacement) body
                in
                [
                  Ast.Do
                    {
                      d with
                      lo = Expr.Const 0;
                      hi = trips_m1;
                      step = Expr.Const 1;
                      body;
                    };
                ])
        | None -> [ Ast.Do { d with lo; hi; step; body } ])
  in
  { p with body = List.concat_map go p.body }

(* Substitutes [PARAMETER] constants into bounds, subscripts and
   declarations, then constant-folds. *)
let fold_parameters (p : Ast.program) =
  let params =
    List.concat_map
      (function Ast.Parameter ps -> ps | _ -> [])
      p.decls
  in
  let subst_all e =
    Expr.fold_consts
      (List.fold_left (fun e (n, v) -> Expr.subst n (Expr.Const v) e) e params)
  in
  let go_decl = function
    | Ast.Array a ->
        Ast.Array
          {
            a with
            a_dims =
              List.map
                (fun (dm : Ast.dim) ->
                  { Ast.lo = subst_all dm.lo; hi = subst_all dm.hi })
                a.a_dims;
          }
    | d -> d
  in
  {
    p with
    decls = List.map go_decl p.decls;
    body = List.map (Ast.map_exprs (fun ~loops:_ -> subst_all)) p.body;
  }

(* Canonicalize (loop-invariant-symbol) affine expressions through the
   polynomial form: turns [10*(1+I)+(1+J)] into [11+10*I+J] and
   [(I*(JJ-1+1)+J)*(KK-1+1)+K] into the paper's [K+J*KK+I*JJ*KK]. *)
let simplify_expr e =
  let module Affine = Dlz_ir.Affine in
  match Affine.of_expr ~is_loop_var:(fun _ -> false) e with
  | Some f -> Affine.to_expr f
  | None -> Expr.fold_consts e

let rec simplify_in_expr e =
  match e with
  | Expr.Const _ | Expr.Var _ -> e
  | Expr.Neg a -> simplify_expr (Expr.Neg (simplify_in_expr a))
  | Expr.Bin (op, a, b) ->
      simplify_expr (Expr.Bin (op, simplify_in_expr a, simplify_in_expr b))
  | Expr.Call (f, args) -> Expr.Call (f, List.map simplify_in_expr args)

let simplify (p : Ast.program) =
  let simplify_stmt = Ast.map_exprs (fun ~loops:_ -> simplify_in_expr) in
  { p with body = List.map simplify_stmt p.body }

let all p = simplify (loop (fold_parameters p))
