module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr

type group = { members : string list; repl : string; kept_dims : int }

type shape = { lo : int; extent : int }
(* One dimension: declared [lo : lo+extent-1]. *)

let shapes_of (a : Ast.array_decl) =
  List.map
    (fun (d : Ast.dim) ->
      match (Expr.to_const d.lo, Expr.to_const d.hi) with
      | Some l, Some h when h >= l -> { lo = l; extent = h - l + 1 }
      | _ -> raise Exit)
    a.a_dims

(* Longest trailing run of dimensions with identical extents across all
   member shapes (ranks may differ: compare from the end). *)
let common_suffix shapes_list =
  match shapes_list with
  | [] -> 0
  | first :: rest ->
      let extents s = List.rev_map (fun d -> d.extent) s in
      let firsts = extents first in
      let min_rank =
        List.fold_left
          (fun acc s -> min acc (List.length s))
          (List.length first) rest
      in
      let rec run k =
        if k >= min_rank then k
        else
          let ok =
            List.for_all
              (fun s -> List.nth (extents s) k = List.nth firsts k)
              rest
          in
          if ok then run (k + 1) else k
      in
      (* Never keep every dimension of every member: at least one leading
         dimension must fold or there is nothing to do. *)
      min (run 0) (min_rank - 1)

let leading_product shapes kept =
  let lead = List.filteri (fun i _ -> i < List.length shapes - kept) shapes in
  List.fold_left (fun acc d -> acc * d.extent) 1 lead

(* Column-major linear offset of the leading subscripts (0-based), from
   the member's storage offset [start]. *)
let linear_subscript start shapes kept subs =
  let n = List.length shapes in
  let lead_n = n - kept in
  let rec go i stride acc shapes subs =
    if i >= lead_n then acc
    else
      match (shapes, subs) with
      | sh :: shs, sb :: sbs ->
          let zero_based =
            Expr.fold_consts (Expr.Bin (Expr.Sub, sb, Expr.Const sh.lo))
          in
          let term =
            Expr.fold_consts
              (Expr.Bin (Expr.Mul, Expr.Const stride, zero_based))
          in
          go (i + 1) (stride * sh.extent)
            (Expr.fold_consts (Expr.Bin (Expr.Add, acc, term)))
            shs sbs
      | _ -> failwith "linear_subscript: arity mismatch"
  in
  go 0 1 (Expr.Const start) shapes subs

(* Offset of a member's anchor element from its first element; [Exit]
   unless the anchor is a constant element of the declared shape. *)
let anchor_offset shapes subs =
  if subs = [] then 0
  else if List.length subs <> List.length shapes then raise Exit
  else
    List.fold_left2
      (fun (acc, stride) sh sb ->
        match Expr.to_const (Expr.fold_consts sb) with
        | Some c when c >= sh.lo && c < sh.lo + sh.extent ->
            (acc + ((c - sh.lo) * stride), stride * sh.extent)
        | _ -> raise Exit)
      (0, 1) shapes subs
    |> fst

(* The trailing subscripts a fold keeps, rebased to 0. *)
let trailing_subs shapes kept subs =
  let lead_n = List.length shapes - kept in
  List.filteri (fun i _ -> i >= lead_n) (List.combine subs shapes)
  |> List.map (fun (sb, sh) ->
         Expr.fold_consts (Expr.Bin (Expr.Sub, sb, Expr.Const sh.lo)))

(* [infos] maps each folded member to its replacement array and the
   rewrite of a full subscript list. *)
let rewrite_refs prog
    (infos : (string * (string * (Expr.t list -> Expr.t list))) list) =
  let rw name subs =
    match (List.assoc_opt name infos, Ast.find_array prog name) with
    | Some (repl, f), Some d when List.length subs = List.length d.a_dims ->
        (repl, f subs)
    | _ -> (name, subs)
  in
  let rec rw_expr e =
    match e with
    | Expr.Const _ | Expr.Var _ -> e
    | Expr.Neg a -> Expr.Neg (rw_expr a)
    | Expr.Bin (op, a, b) -> Expr.Bin (op, rw_expr a, rw_expr b)
    | Expr.Call (f, args) ->
        let f, args = rw f (List.map rw_expr args) in
        Expr.Call (f, args)
  in
  let rw_aref (r : Ast.aref) =
    let name, subs = rw r.name (List.map rw_expr r.subs) in
    { Ast.name; subs }
  in
  Ast.map_stmts
    (function
      | Ast.Assign { label; lhs; rhs } ->
          Ast.Assign { label; lhs = rw_aref lhs; rhs = rw_expr rhs }
      | s -> s)
    prog

(* Groups that share a member alias one storage sequence: split the
   groups into such classes, in order of first appearance, each group
   after a class's first sharing a member with one before it. *)
let rec classes = function
  | [] -> []
  | g :: rest ->
      let rec grow cls rest =
        let names = List.concat_map (List.map fst) cls in
        match List.partition (List.exists (fun (n, _) -> List.mem n names)) rest with
        | [], _ -> (cls, rest)
        | more, rest -> grow (cls @ more) rest
      in
      let cls, rest = grow [ g ] rest in
      cls :: classes rest

(* Adds a group to [pos], which holds each member's first element
   relative to the class's first anchor: the group's anchors share the
   address of its member already placed.  [anchor n subs] is the offset
   of [n]'s anchor from its first element.  [Exit] when the group places
   a member elsewhere. *)
let place anchor pos group =
  let anchored = List.map (fun (n, subs) -> (n, anchor n subs)) group in
  let at =
    match List.find_opt (fun (n, _) -> List.mem_assoc n pos) anchored with
    | Some (n, a) -> List.assoc n pos + a
    | None -> 0
  in
  List.fold_left
    (fun pos (n, a) ->
      match List.assoc_opt n pos with
      | Some p -> if p + a <> at then raise Exit else pos
      | None -> pos @ [ (n, at - a) ])
    pos anchored

(* A class's members in order of first appearance. *)
let members cls =
  List.fold_left
    (fun acc (n, _) -> if List.mem n acc then acc else acc @ [ n ])
    [] (List.concat cls)

(* A fold of a class: its members, the dimensions of the replacement
   array, how many of them are kept member dimensions, and each
   member's subscript rewrite. *)
type fold = {
  names : string list;
  dims : Ast.dim list;
  kept : int;
  rewrites : (Expr.t list -> Expr.t list) list;
}

(* Constant bounds: each member at its storage offset in one array that
   folds the leading dimensions column-major.  [Exit] on a non-constant
   bound or anchor, or on anchors that disagree. *)
let fold_constant decl cls =
  let anchor n subs = anchor_offset (shapes_of (decl n)) subs in
  let placed = List.fold_left (place anchor) [] cls in
  let names = List.map fst placed in
  let shapes = List.map (fun n -> shapes_of (decl n)) names in
  let lowest = List.fold_left (fun acc (_, s) -> min acc s) 0 placed in
  let starts = List.map (fun (_, s) -> s - lowest) placed in
  (* Members that start together with equal leading totals keep their
     common trailing dimensions; any other class folds fully. *)
  let kept =
    let kept = common_suffix shapes in
    match List.map (fun s -> leading_product s kept) shapes with
    | p0 :: rest
      when List.for_all (( = ) 0) starts && List.for_all (( = ) p0) rest ->
        kept
    | _ -> 0
  in
  let total =
    List.fold_left2
      (fun acc s start -> max acc (start + leading_product s kept))
      0 shapes starts
  in
  (* Trailing dims are shared by construction. *)
  let trailing =
    match shapes with
    | s :: _ -> List.filteri (fun i _ -> i >= List.length s - kept) s
    | [] -> []
  in
  let dim n = { Ast.lo = Expr.Const 0; hi = Expr.Const (n - 1) } in
  {
    names;
    dims = dim total :: List.map (fun sh -> dim sh.extent) trailing;
    kept;
    rewrites =
      List.map2
        (fun s start subs ->
          linear_subscript start s kept subs :: trailing_subs s kept subs)
        shapes starts;
  }

(* Members that declare Expr-equal dimensions and are all anchored at
   their first element overlay each other element for element, whatever
   the bounds: they become one array with those dimensions, every
   subscript as written.  [Exit] for any other class. *)
let fold_same_shape decl cls =
  let names = members cls in
  let dims = (decl (List.hd names)).Ast.a_dims in
  let same (a : Ast.dim) (b : Ast.dim) =
    Expr.equal a.lo b.lo && Expr.equal a.hi b.hi
  in
  let at_base subs =
    subs = []
    || List.length subs = List.length dims
       && List.for_all2
            (fun sb (d : Ast.dim) ->
              Expr.equal (Expr.fold_consts sb) (Expr.fold_consts d.lo))
            subs dims
  in
  List.iter
    (fun (n, subs) ->
      if not (List.equal same (decl n).Ast.a_dims dims && at_base subs) then
        raise Exit)
    (List.concat cls);
  {
    names;
    dims;
    kept = List.length dims;
    rewrites = List.map (fun _ -> Fun.id) names;
  }

(* Rank-1 members with constant lower bounds, extents [hi - lo] equal
   as expressions and constant anchors lie at constant offsets of one
   storage sequence, whatever the extent: each member at its start in
   one array [0 : max start + extent - 1], each subscript shifted by
   [start - lo].  [Exit] for any other class. *)
let fold_offset decl cls =
  let bounds n =
    match (decl n).Ast.a_dims with
    | [ { Ast.lo; hi } ] -> (
        match Expr.to_const lo with
        | Some lo ->
            (lo, Expr.fold_consts (Expr.Bin (Expr.Sub, hi, Expr.Const lo)))
        | None -> raise Exit)
    | _ -> raise Exit
  in
  let anchor n subs =
    let lo, _ = bounds n in
    match subs with
    | [] -> 0
    | [ sb ] -> (
        match Expr.to_const (Expr.fold_consts sb) with
        | Some c when c >= lo -> c - lo
        | _ -> raise Exit)
    | _ -> raise Exit
  in
  let placed = List.fold_left (place anchor) [] cls in
  let names = List.map fst placed in
  let span = snd (bounds (List.hd names)) in
  if not (List.for_all (fun n -> Expr.equal (snd (bounds n)) span) names)
  then raise Exit;
  let lowest = List.fold_left (fun acc (_, s) -> min acc s) 0 placed in
  let starts = List.map (fun (_, s) -> s - lowest) placed in
  let last = List.fold_left max 0 starts in
  {
    names;
    dims =
      [
        {
          Ast.lo = Expr.Const 0;
          hi = Expr.fold_consts (Expr.Bin (Expr.Add, Expr.Const last, span));
        };
      ];
    kept = 1;
    rewrites =
      List.map2
        (fun n start subs ->
          let shift = Expr.Const (start - fst (bounds n)) in
          List.map
            (fun sb -> Expr.fold_consts (Expr.Bin (Expr.Add, sb, shift)))
            subs)
        names starts;
  }

let linearize (prog : Ast.program) =
  let groups =
    List.concat_map
      (function Ast.Equivalence gs -> gs | _ -> [])
      prog.decls
  in
  let decl n =
    match Ast.find_array prog n with Some d -> d | None -> raise Exit
  in
  let fold cls =
    List.find_map
      (fun fold -> try Some (fold decl cls) with Exit -> None)
      [ fold_constant; fold_same_shape; fold_offset ]
  in
  let results = ref [] in
  let infos = ref [] in
  let new_decls = ref [] in
  let counter = ref 0 in
  List.iter
    (fun cls ->
      match fold cls with
      | Some f ->
          incr counter;
          let repl = Printf.sprintf "LIN%d" !counter in
          let kind = (decl (List.hd f.names)).a_kind in
          new_decls :=
            Ast.Array { a_name = repl; a_kind = kind; a_dims = f.dims }
            :: !new_decls;
          List.iter2
            (fun name rw -> infos := (name, (repl, rw)) :: !infos)
            f.names f.rewrites;
          results :=
            { members = f.names; repl; kept_dims = f.kept } :: !results
      | None ->
          results :=
            { members = members cls; repl = ""; kept_dims = -1 } :: !results)
    (classes groups);
  let prog = rewrite_refs prog !infos in
  (* Drop the folded arrays' declarations and the handled EQUIVALENCEs;
     keep everything else. *)
  let handled name = List.mem_assoc name !infos in
  let decls =
    List.filter_map
      (function
        | Ast.Array a when handled a.a_name -> None
        | Ast.Equivalence gs ->
            let remaining =
              List.filter
                (fun g -> not (List.for_all (fun (n, _) -> handled n) g))
                gs
            in
            if remaining = [] then None else Some (Ast.Equivalence remaining)
        | d -> Some d)
      prog.decls
  in
  ( { prog with decls = decls @ List.rev !new_decls },
    List.rev !results )
