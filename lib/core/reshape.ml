module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr
module Affine = Dlz_ir.Affine
module Access = Dlz_ir.Access
module Symeq = Dlz_deptest.Symeq

type plan = { array : string; extents : Poly.t list }

exception No_plan

let divmod p s =
  match Poly.divmod_by_term p s with
  | Some qr -> qr
  | None -> raise No_plan

let divides s p = Poly.is_zero (snd (divmod p s))

(* Interval [lo, hi] (polynomials) of an affine form over its loops. *)
let form_interval env (f : Affine.t) loops =
  List.fold_left
    (fun (lo, hi) (v, c) ->
      let ub =
        match
          List.find_opt (fun (l : Access.loop) -> String.equal l.l_var v) loops
        with
        | Some l -> l.l_ub
        | None -> raise No_plan
      in
      let contrib = Poly.mul c ub in
      match Assume.sign env c with
      | Assume.Positive -> (lo, Poly.add hi contrib)
      | Assume.Negative -> (Poly.add lo contrib, hi)
      | Assume.Zero -> (lo, hi)
      | Assume.Unknown -> raise No_plan)
    (Affine.konst f, Affine.konst f)
    (Affine.terms f)

(* Strides recovered by running the barrier scan on one reference (the
   "reshape mode" of the symbolic algorithm). *)
let strides_of env (f : Affine.t) (loops : Access.loop list) =
  let terms =
    List.map
      (fun (v, c) ->
        let ub =
          match
            List.find_opt (fun (l : Access.loop) -> String.equal l.l_var v) loops
          with
          | Some l -> l.l_ub
          | None -> raise No_plan
        in
        (c, Symeq.var ~side:`Src ~level:0 v ub))
      (Affine.terms f)
  in
  let eq = Symeq.make (Affine.konst f) terms in
  let r = Symalgo.run ~check_independence:false ~env ~n_common:0 eq in
  let stride_of_piece (piece : Symeq.t) =
    let coeffs = List.map fst piece.Symeq.terms in
    match coeffs with
    | [] -> raise No_plan
    | c0 :: rest ->
        let g = List.fold_left Poly.gcd_simple c0 rest in
        if Poly.leading_sign g < 0 then Poly.neg g else g
  in
  List.map stride_of_piece r.Symalgo.pieces

(* Decompose one reference against the strides: per-dimension index
   expressions (innermost first). *)
let decompose env ~strides ~extents (f : Affine.t) loops =
  let m = List.length strides in
  (* Assign each term to the deepest stride dividing its coefficient. *)
  let buckets = Array.make m [] in
  List.iter
    (fun (v, c) ->
      let rec pick k best =
        if k >= m then best
        else if divides (List.nth strides k) c then pick (k + 1) (Some k)
        else pick (k + 1) best
      in
      match pick 0 None with
      | Some k -> buckets.(k) <- (v, c) :: buckets.(k)
      | None -> raise No_plan)
    (Affine.terms f);
  (* Mixed-radix split of the constant part.  Below a numeric stride the
     numeric part of the constant is its floor residue (the Figure-4
     [c0 mod g]: 11 over strides 1, 10 splits as 1 + 10); the symbolic
     part keeps the terms the stride does not divide. *)
  let below stride p =
    match Poly.to_const stride with
    | Some s when s > 0 ->
        let num = Poly.eval (fun _ -> 0) p in
        let _, r = divmod (Poly.sub p (Poly.const num)) stride in
        Poly.add r (Poly.const (Dlz_base.Numth.fmod num s))
    | _ -> snd (divmod p stride)
  in
  let consts = Array.make m Poly.zero in
  let rem = ref (Affine.konst f) in
  for k = 0 to m - 2 do
    let r = below (List.nth strides (k + 1)) !rem in
    consts.(k) <- r;
    rem := Poly.sub !rem r
  done;
  consts.(m - 1) <- !rem;
  (* Per-dimension affine index = (terms + const) / stride. *)
  let indices =
    List.mapi
      (fun k stride ->
        let scaled_terms =
          List.map
            (fun (v, c) ->
              let q, r = divmod c stride in
              if not (Poly.is_zero r) then raise No_plan;
              (v, q))
            buckets.(k)
        in
        let q, r = divmod consts.(k) stride in
        if not (Poly.is_zero r) then raise No_plan;
        List.fold_left
          (fun acc (v, c) -> Affine.add acc (Affine.term c v))
          (Affine.const q) scaled_terms)
      strides
  in
  (* Range-check every dimension against its extent. *)
  List.iteri
    (fun k idx ->
      let lo, hi = form_interval env idx loops in
      let extent = List.nth extents k in
      if not (Assume.is_nonneg env lo) then raise No_plan;
      if not (Assume.le env hi (Poly.sub extent Poly.one)) then raise No_plan)
    indices;
  indices

let array_size (p : Ast.program) name =
  match Ast.find_array p name with
  | Some { a_dims = [ d ]; _ } -> (
      match Expr.to_const d.lo with
      | Some 0 -> (
          let is_loop_var _ = false in
          match Affine.of_expr ~is_loop_var d.hi with
          | Some f when Affine.is_const f ->
              Some (Poly.add (Affine.konst f) Poly.one)
          | _ -> None)
      | _ -> None)
  | _ -> None

let accesses_of prog name =
  let accs, env = Access.of_program prog in
  (List.filter (fun (a : Access.t) -> String.equal a.Access.array name) accs, env)

let plan_of ~env prog name =
  match array_size prog name with
  | None -> None
  | Some size -> (
      let accs, env' = accesses_of prog name in
      let env =
        List.fold_left
          (fun acc (s, b) -> Assume.assume_ge s b acc)
          env (Assume.bindings env')
      in
      try
        match accs with
        | [] -> None
        | a0 :: _ ->
            let f0 =
              match a0.Access.subs with
              | [ Access.Aff f ] -> f
              | _ -> raise No_plan
            in
            let strides = strides_of env f0 a0.Access.loops in
            let m = List.length strides in
            if m < 2 then None
            else begin
              (* Innermost stride must be 1 for a literal reshape. *)
              (match Poly.to_const (List.hd strides) with
              | Some 1 -> ()
              | _ -> raise No_plan);
              let extents =
                List.mapi
                  (fun k s ->
                    let next =
                      if k + 1 < m then List.nth strides (k + 1) else size
                    in
                    let q, r = divmod next s in
                    if not (Poly.is_zero r) then raise No_plan;
                    q)
                  strides
              in
              Some ({ array = name; extents }, strides, env)
            end
      with No_plan -> None)

let apply ~env prog =
  let arrays =
    List.filter_map
      (function
        | Ast.Array a when List.length a.a_dims = 1 -> Some a.a_name
        | _ -> None)
      prog.Ast.decls
  in
  let plans = List.filter_map (plan_of ~env prog) arrays in
  (* Every reference, DO bounds included, is rewritten through
     [decompose], which range-checks it; one that does not decompose
     drops the plan. *)
  let rewrite (prog, applied) ((plan : plan), strides, env') =
    let reshape ~loops (r : Ast.aref) =
      if not (String.equal r.name plan.array) then r
      else
        let loops =
          List.map
            (fun (var, _, hi, _) ->
              let ub =
                match Affine.of_expr ~is_loop_var:(fun _ -> false) hi with
                | Some f when Affine.is_const f -> Affine.konst f
                | _ -> Poly.sym ("UB" ^ var)
              in
              { Access.l_var = var; l_ub = ub })
            loops
        in
        let is_loop_var v =
          List.exists (fun (l : Access.loop) -> String.equal l.l_var v) loops
        in
        match List.map (Affine.of_expr ~is_loop_var) r.subs with
        | [ Some f ] ->
            let indices =
              decompose env' ~strides ~extents:plan.extents f loops
            in
            let index idx = Expr.fold_consts (Affine.to_expr idx) in
            { r with subs = List.map index indices }
        | _ -> raise No_plan
    in
    let dim extent =
      let hi = Expr.Bin (Expr.Sub, Expr.of_poly extent, Expr.Const 1) in
      { Ast.lo = Expr.Const 0; hi = Expr.fold_consts hi }
    in
    match Ast.map_refs reshape prog with
    | exception No_plan -> (prog, applied)
    | reshaped ->
        let decls =
          List.map
            (function
              | Ast.Array a when String.equal a.a_name plan.array ->
                  Ast.Array { a with a_dims = List.map dim plan.extents }
              | d -> d)
            prog.Ast.decls
        in
        ({ reshaped with Ast.decls }, plan :: applied)
  in
  let prog', applied = List.fold_left rewrite (prog, []) plans in
  (prog', List.rev applied)
