module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun m -> raise (Unsupported m)) fmt

let dims_equal (a : Ast.array_decl) (b : Ast.array_decl) =
  List.length a.a_dims = List.length b.a_dims
  && List.for_all2
       (fun (d1 : Ast.dim) (d2 : Ast.dim) ->
         let extent (d : Ast.dim) =
           match (Expr.to_const d.lo, Expr.to_const d.hi) with
           | Some lo, Some hi -> Some (hi - lo + 1)
           | _ -> None
         in
         match (extent d1, extent d2) with
         | Some e1, Some e2 -> e1 = e2
         | _ -> false)
       a.a_dims b.a_dims

let total_size (a : Ast.array_decl) =
  List.fold_left
    (fun acc (d : Ast.dim) ->
      match (Expr.to_const d.lo, Expr.to_const d.hi) with
      | Some lo, Some hi when hi >= lo -> acc * (hi - lo + 1)
      | _ -> raise Exit)
    1 a.a_dims

(* The body of [p] with every name renamed through [f]: array reads
   (Call nodes), assignment targets, scalar reads (Vars) and loop
   variables. *)
let rename_body f (p : Ast.program) =
  let rec rn_expr e =
    match e with
    | Expr.Const _ -> e
    | Expr.Var v -> Expr.Var (f v)
    | Expr.Neg a -> Expr.Neg (rn_expr a)
    | Expr.Bin (op, a, b) -> Expr.Bin (op, rn_expr a, rn_expr b)
    | Expr.Call (g, args) -> Expr.Call (f g, List.map rn_expr args)
  in
  let named =
    Ast.map_stmts
      (function
        | Ast.Assign a ->
            let lhs = { a.lhs with Ast.name = f a.lhs.Ast.name } in
            Ast.Assign { a with lhs }
        | Ast.Do d -> Ast.Do { d with var = f d.var }
        | s -> s)
      p
  in
  List.map (Ast.map_exprs (fun ~loops:_ -> rn_expr)) named.Ast.body

(* [v := e] in a callee body, refused, at the first statement in
   program order, when that body assigns [v] or loops over it. *)
let subst_scalar_stmts v e stmts =
  let rec check = function
    | Ast.Assign { lhs; _ } when String.equal lhs.Ast.name v ->
        unsupported "scalar dummy %s is assigned in the callee" v
    | Ast.Do d when String.equal d.var v ->
        unsupported "scalar dummy %s is a loop variable in the callee" v
    | Ast.Do d -> List.iter check d.body
    | Ast.Assign _ | Ast.Continue _ -> ()
  in
  List.iter check stmts;
  List.map (Ast.map_exprs (fun ~loops:_ -> Expr.subst v e)) stmts

type callee = { c_params : string list; c_prog : Ast.program }

let expand units =
  match units with
  | [] -> { Ast.p_name = "EMPTY"; decls = []; body = [] }
  | (main, _) :: rest ->
      let callees = Hashtbl.create 8 in
      List.iter
        (fun ((p : Ast.program), params) ->
          Hashtbl.replace callees p.Ast.p_name
            { c_params = params; c_prog = p })
        rest;
      let counter = ref 0 in
      let extra_decls = ref [] in
      (* Inline one call; returns the statements replacing it. *)
      let rec inline_call ~caller_decls depth callee_name args =
        if depth > 10 then unsupported "call nesting too deep (recursion?)";
        let callee =
          match Hashtbl.find_opt callees callee_name with
          | Some c -> c
          | None -> unsupported "unknown subroutine %s" callee_name
        in
        if List.length args <> List.length callee.c_params then
          unsupported "%s: wrong number of arguments" callee_name;
        incr counter;
        let tag = Printf.sprintf "__%d" !counter in
        let find_callee_array n = Ast.find_array callee.c_prog n in
        (* Build the renaming for callee-local names and the association
           work lists. *)
        let assoc = Hashtbl.create 8 in
        (* dummy array name -> replacement name *)
        let scalar_substs = ref [] in
        List.iter2
          (fun dummy actual ->
            match find_callee_array dummy with
            | Some ddecl -> (
                (* Array association: the actual must be a bare name
                   declared in the caller. *)
                match actual with
                | Expr.Var aname | Expr.Call (aname, []) -> (
                    let adecl =
                      match
                        List.find_map
                          (function
                            | Ast.Array a when a.Ast.a_name = aname -> Some a
                            | _ -> None)
                          caller_decls
                      with
                      | Some a -> a
                      | None ->
                          unsupported "%s: actual %s is not a caller array"
                            callee_name aname
                    in
                    if dims_equal ddecl adecl then
                      Hashtbl.replace assoc dummy aname
                    else begin
                      (* Shape mismatch: fresh alias array with the
                         dummy's shape, EQUIVALENCE'd to the actual.  The
                         standard aliasing pass linearizes from here. *)
                      (match (total_size ddecl, total_size adecl) with
                      | sd, sa when sd <= sa -> ()
                      | _ | (exception Exit) ->
                          unsupported
                            "%s: dummy %s larger than actual %s (or symbolic)"
                            callee_name dummy aname);
                      let alias = dummy ^ tag in
                      extra_decls :=
                        Ast.Equivalence [ [ (aname, []); (alias, []) ] ]
                        :: Ast.Array { ddecl with Ast.a_name = alias }
                        :: !extra_decls;
                      Hashtbl.replace assoc dummy alias
                    end)
                | _ ->
                    unsupported "%s: array actual must be a name" callee_name)
            | None -> scalar_substs := (dummy, actual) :: !scalar_substs)
          callee.c_params args;
        (* Callee-local arrays: freshen and hoist their declarations. *)
        List.iter
          (function
            | Ast.Array a when not (List.mem a.Ast.a_name callee.c_params) ->
                let fresh = a.Ast.a_name ^ tag in
                Hashtbl.replace assoc a.Ast.a_name fresh;
                extra_decls :=
                  Ast.Array { a with Ast.a_name = fresh } :: !extra_decls
            | _ -> ())
          callee.c_prog.Ast.decls;
        (* Local scalars (incl. loop variables): freshen anything that is
           neither a parameter nor an array. *)
        let is_param n = List.mem n callee.c_params in
        let rename n =
          match Hashtbl.find_opt assoc n with
          | Some n' -> n'
          | None ->
              if is_param n || String.length n > 0 && n.[0] = '%' then n
              else n ^ tag
        in
        let body = rename_body rename callee.c_prog in
        let body =
          List.fold_left
            (fun body (dummy, actual) -> subst_scalar_stmts dummy actual body)
            body !scalar_substs
        in
        (* Nested calls inside the inlined body. *)
        expand_stmts ~caller_decls (depth + 1) body
      and expand_stmts ~caller_decls depth stmts =
        List.concat_map
          (fun s ->
            match s with
            | Ast.Assign
                { lhs = { Ast.name = "%CALL"; _ }; rhs = Expr.Call (f, args); _ }
              ->
                inline_call ~caller_decls depth f args
            | Ast.Do d ->
                [
                  Ast.Do
                    { d with body = expand_stmts ~caller_decls depth d.body };
                ]
            | s -> [ s ])
          stmts
      in
      let body = expand_stmts ~caller_decls:main.Ast.decls 0 main.Ast.body in
      { main with Ast.decls = main.Ast.decls @ List.rev !extra_decls; body }
