module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr

type layout = { lin_dims : (int * int) list (* (lo, extent) *) }

let layout_of (a : Ast.array_decl) =
  let dims =
    List.map
      (fun (d : Ast.dim) ->
        match (Expr.to_const d.lo, Expr.to_const d.hi) with
        | Some lo, Some hi when hi >= lo -> (lo, hi - lo + 1)
        | _ -> raise Exit)
      a.a_dims
  in
  { lin_dims = dims }

let total { lin_dims } =
  List.fold_left (fun acc (_, e) -> acc * e) 1 lin_dims

(* Column-major linear subscript, 0-based. *)
let linear_subscript { lin_dims } subs =
  let rec go dims subs stride acc =
    match (dims, subs) with
    | [], [] -> acc
    | (lo, extent) :: dims, s :: subs ->
        let rebased =
          Expr.fold_consts (Expr.Bin (Expr.Sub, s, Expr.Const lo))
        in
        let term =
          Expr.fold_consts (Expr.Bin (Expr.Mul, Expr.Const stride, rebased))
        in
        go dims subs (stride * extent)
          (Expr.fold_consts (Expr.Bin (Expr.Add, acc, term)))
    | _ -> raise Exit
  in
  go lin_dims subs 1 (Expr.Const 0)

let rewrite_program prog targets =
  let prog' =
    Ast.map_refs
      (fun ~loops:_ (r : Ast.aref) ->
        match Hashtbl.find_opt targets r.name with
        | Some layout -> { r with subs = [ linear_subscript layout r.subs ] }
        | None -> r)
      prog
  in
  let dim layout =
    { Ast.lo = Expr.Const 0; hi = Expr.Const (total layout - 1) }
  in
  let decls =
    List.map
      (function
        | Ast.Array a as d -> (
            match Hashtbl.find_opt targets a.a_name with
            | Some layout -> Ast.Array { a with a_dims = [ dim layout ] }
            | None -> d)
        | d -> d)
      prog.Ast.decls
  in
  { prog' with Ast.decls }

let equivalenced prog =
  List.concat_map
    (function
      | Ast.Equivalence groups -> List.concat_map (List.map fst) groups
      | _ -> [])
    prog.Ast.decls

let program prog =
  (* Each array's first declaration, the one [Ast.find_array] reads. *)
  let decl = Hashtbl.create 16 in
  List.iter
    (function
      | Ast.Array a when not (Hashtbl.mem decl a.a_name) ->
          Hashtbl.add decl a.a_name a
      | _ -> ())
    prog.Ast.decls;
  (* An array referenced anywhere, DO bounds included, at another rank
     than declared is left as written rather than half-rewritten. *)
  let wrong_rank = Hashtbl.create 8 in
  ignore
    (Ast.map_refs
       (fun ~loops:_ (r : Ast.aref) ->
         (match Hashtbl.find_opt decl r.name with
         | Some a when List.length a.a_dims <> List.length r.subs ->
             Hashtbl.replace wrong_rank r.name ()
         | _ -> ());
         r)
       prog);
  (* EQUIVALENCE'd arrays are the storage pass's business. *)
  let skip = equivalenced prog in
  let targets = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name (a : Ast.array_decl) ->
      let kept = List.mem name skip || Hashtbl.mem wrong_rank name in
      if a.a_dims <> [] && not kept then
        match layout_of a with
        | layout -> Hashtbl.replace targets name layout
        | exception Exit -> ())
    decl;
  rewrite_program prog targets
