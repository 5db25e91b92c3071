module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr

type area = {
  members : string list;
  bases : int list;
  repl : string;
  kept_dims : int;
}

exception Conflict of string

(* What joins arrays into one storage sequence: a COMMON block (its
   statements concatenated, as F77 does) or an EQUIVALENCE group. *)
type link = Block of string * string list | Group of (string * Expr.t list) list

let names = function Block (_, ms) -> ms | Group g -> List.map fst g

(* A connected storage area: its links in declaration order and its
   declared arrays in order of first appearance. *)
type region = { links : link list; members : string list }

let dedup l =
  List.fold_left (fun acc n -> if List.mem n acc then acc else acc @ [ n ]) [] l

let regions (p : Ast.program) =
  let links =
    List.fold_left
      (fun acc -> function
        | Ast.Common (blk, ms) ->
            if List.exists (function Block (b, _) -> b = blk | _ -> false) acc
            then
              List.map
                (function
                  | Block (b, old) when b = blk -> Block (b, old @ ms) | l -> l)
                acc
            else acc @ [ Block (blk, ms) ]
        | Ast.Equivalence gs -> acc @ List.map (fun g -> Group g) gs
        | _ -> acc)
      [] p.decls
  in
  let declared l =
    List.filter (fun n -> Ast.find_array p n <> None) (names l)
  in
  (* The declared arrays that links join, directly or through each other. *)
  let sets =
    List.fold_left
      (fun sets l ->
        let ns = declared l in
        let touch, rest =
          List.partition (List.exists (fun n -> List.mem n ns)) sets
        in
        (ns @ List.concat touch) :: rest)
      [] links
  in
  (* One region per set, in order of its first link. *)
  List.fold_left
    (fun acc l ->
      match declared l with
      | n :: _ when not (List.exists (fun r -> List.mem n r.members) acc) ->
          let set = List.find (List.mem n) sets in
          let links =
            List.filter
              (fun l -> List.exists (fun n -> List.mem n set) (declared l))
              links
          in
          acc @ [ { links; members = dedup (List.concat_map declared links) } ]
      | _ -> acc)
    [] links

(* Each member's base: a block's members follow each other, and every
   EQUIVALENCE anchor takes the address of its group's first; an anchor
   joining two units moves the whole of one.  Rebased to start at 0. *)
let place ~size ~anchor r =
  let at = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace at n (n, 0)) r.members;
  List.iter
    (function
      | Block (blk, ms) ->
          ignore
            (List.fold_left
               (fun base n ->
                 if Hashtbl.mem at n then (
                   Hashtbl.replace at n ("/" ^ blk, base);
                   base + size n)
                 else base)
               0 ms)
      | Group _ -> ())
    r.links;
  let addr (n, subs) =
    let unit, base = Hashtbl.find at n in
    (unit, if subs = [] then base else base + anchor n subs)
  in
  List.iter
    (function
      | Group g -> (
          match List.filter (fun (n, _) -> Hashtbl.mem at n) g with
          | [] -> ()
          | first :: rest ->
              List.iter
                (fun m ->
                  let target, want = addr first and unit, got = addr m in
                  if unit <> target then
                    Hashtbl.filter_map_inplace
                      (fun _ (u, b) ->
                        if u = unit then Some (target, b + want - got)
                        else Some (u, b))
                      at
                  else if got <> want then raise (Conflict (fst m)))
                rest)
      | Block _ -> ())
    r.links;
  let lowest = Hashtbl.fold (fun _ (_, b) acc -> min acc b) at 0 in
  List.map (fun n -> (n, snd (Hashtbl.find at n) - lowest)) r.members

let blocks r =
  List.filter_map (function Block (b, _) -> Some b | Group _ -> None) r.links

let layout ~size ~anchor p =
  List.map
    (fun r ->
      let name =
        match blocks r with b :: _ -> "/" ^ b | [] -> List.hd r.members
      in
      (name, place ~size ~anchor r))
    (regions p)

(* --- folding -------------------------------------------------------------- *)

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
   the member's base [start]. *)
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
  if List.length subs <> List.length shapes then raise Exit
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

(* A fold of a region: the dimensions of the replacement array, how many
   of them are kept member dimensions, and each member's base and
   subscript rewrite, in member order. *)
type fold = {
  dims : Ast.dim list;
  kept : int;
  bases : int list;
  rewrites : (Expr.t list -> Expr.t list) list;
}

(* Constant bounds: each member at its base in one array that folds the
   leading dimensions column-major.  [Exit] on a non-constant bound or
   anchor. *)
let fold_constant decl r =
  let shapes = List.map (fun n -> shapes_of (decl n)) r.members in
  let shape n = List.assoc n (List.combine r.members shapes) in
  let size n = leading_product (shape n) 0 in
  let starts =
    List.map snd
      (place ~size ~anchor:(fun n subs -> anchor_offset (shape n) subs) r)
  in
  (* Members that start together with equal leading totals keep their
     common trailing dimensions; any other region folds fully. *)
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
    dims = dim total :: List.map (fun sh -> dim sh.extent) trailing;
    kept;
    bases = starts;
    rewrites =
      List.map2
        (fun s start subs ->
          linear_subscript start s kept subs :: trailing_subs s kept subs)
        shapes starts;
  }

(* Members that declare Expr-equal dimensions and are all anchored at
   their first element overlay each other element for element, whatever
   the bounds: they become one array with those dimensions, every
   subscript as written.  [Exit] for any other region. *)
let fold_same_shape decl r =
  let dims = (decl (List.hd r.members)).Ast.a_dims in
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
    (function
      | Block _ -> raise Exit
      | Group g ->
          List.iter
            (fun (n, subs) ->
              if not (List.equal same (decl n).Ast.a_dims dims && at_base subs)
              then raise Exit)
            g)
    r.links;
  {
    dims;
    kept = List.length dims;
    bases = List.map (fun _ -> 0) r.members;
    rewrites = List.map (fun _ -> Fun.id) r.members;
  }

(* Rank-1 members with constant lower bounds, extents [hi - lo] equal
   as expressions and constant anchors lie at constant offsets of one
   storage sequence, whatever the extent: each member at its base in
   one array [0 : max base + extent - 1], each subscript shifted by
   [base - lo].  [Exit] for any other region, and for any COMMON
   block, whose offsets would be symbolic. *)
let fold_offset decl r =
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
    | [ sb ] -> (
        match Expr.to_const (Expr.fold_consts sb) with
        | Some c when c >= lo -> c - lo
        | _ -> raise Exit)
    | _ -> raise Exit
  in
  let starts =
    List.map snd (place ~size:(fun _ -> raise Exit) ~anchor r)
  in
  let span = snd (bounds (List.hd r.members)) in
  if not (List.for_all (fun n -> Expr.equal (snd (bounds n)) span) r.members)
  then raise Exit;
  let last = List.fold_left max 0 starts in
  {
    dims =
      [
        {
          Ast.lo = Expr.Const 0;
          hi = Expr.fold_consts (Expr.Bin (Expr.Add, Expr.Const last, span));
        };
      ];
    kept = 1;
    bases = starts;
    rewrites =
      List.map2
        (fun n start subs ->
          let shift = Expr.Const (start - fst (bounds n)) in
          List.map
            (fun sb -> Expr.fold_consts (Expr.Bin (Expr.Add, sb, shift)))
            subs)
        r.members starts;
  }

(* Rewrites every array reference of the program, in assignments and in
   DO bounds, through [f name subs]. *)
let map_refs f (p : Ast.program) =
  let rec expr e =
    match e with
    | Expr.Const _ | Expr.Var _ -> e
    | Expr.Neg a -> Expr.Neg (expr a)
    | Expr.Bin (op, a, b) -> Expr.Bin (op, expr a, expr b)
    | Expr.Call (name, args) ->
        let name, subs = f name (List.map expr args) in
        Expr.Call (name, subs)
  in
  Ast.map_stmts
    (function
      | Ast.Assign { label; lhs; rhs } ->
          let name, subs = f lhs.name (List.map expr lhs.subs) in
          Ast.Assign { label; lhs = { name; subs }; rhs = expr rhs }
      | Ast.Do d ->
          Ast.Do { d with lo = expr d.lo; hi = expr d.hi; step = expr d.step }
      | s -> s)
    p

let associate (p : Ast.program) =
  match List.filter (fun r -> List.length r.members >= 2) (regions p) with
  | [] -> (p, [])
  | regions ->
      let decl n = Option.get (Ast.find_array p n) in
      let members = List.concat_map (fun r -> r.members) regions in
      (* Members referenced with a subscript count other than their rank. *)
      let wrong_rank = Hashtbl.create 4 in
      ignore
        (map_refs
           (fun n subs ->
             if
               List.mem n members
               && List.length subs <> List.length (decl n).a_dims
             then Hashtbl.replace wrong_rank n ();
             (n, subs))
           p);
      let fold r =
        if
          List.for_all (fun n -> Ast.find_array p n <> None)
            (List.concat_map names r.links)
          && List.length (blocks r) <= 1
          && not (List.exists (Hashtbl.mem wrong_rank) r.members)
        then
          List.find_map
            (fun fold -> try Some (fold decl r) with Exit | Conflict _ -> None)
            [ fold_constant; fold_same_shape; fold_offset ]
        else None
      in
      let lin = ref 0 in
      let folded, areas =
        List.split
          (List.map
             (fun r ->
               let area bases repl kept_dims =
                 { members = r.members; bases; repl; kept_dims }
               in
               match fold r with
               | None -> (None, area [] "" (-1))
               | Some f ->
                   let repl =
                     match blocks r with
                     | [ b ] -> "CB" ^ b
                     | _ ->
                         incr lin;
                         Printf.sprintf "LIN%d" !lin
                   in
                   (Some (r, repl, f), area f.bases repl f.kept))
             regions)
      in
      let folded = List.filter_map Fun.id folded in
      let infos =
        List.concat_map
          (fun (r, repl, f) ->
            List.map2 (fun n rw -> (n, (repl, rw))) r.members f.rewrites)
          folded
      in
      let p =
        map_refs
          (fun n subs ->
            match List.assoc_opt n infos with
            | Some (repl, rw) -> (repl, rw subs)
            | None -> (n, subs))
          p
      in
      (* Drop the folded members' declarations and EQUIVALENCEs; a folded
         block's first COMMON statement lists only its array, and any
         later one goes. *)
      let handled n = List.mem_assoc n infos in
      let pending =
        ref
          (List.concat_map
             (fun (r, repl, _) -> List.map (fun b -> (b, repl)) (blocks r))
             folded)
      in
      let decls =
        List.filter_map
          (function
            | Ast.Array a when handled a.a_name -> None
            | Ast.Equivalence gs -> (
                match
                  List.filter
                    (fun g -> not (List.for_all (fun (n, _) -> handled n) g))
                    gs
                with
                | [] -> None
                | gs -> Some (Ast.Equivalence gs))
            | Ast.Common (blk, ms) -> (
                match List.assoc_opt blk !pending with
                | Some repl ->
                    pending := List.remove_assoc blk !pending;
                    Some (Ast.Common (blk, [ repl ]))
                | None when List.exists handled ms -> None
                | None -> Some (Ast.Common (blk, ms)))
            | d -> Some d)
          p.decls
      in
      let arrays =
        List.map
          (fun (r, repl, f) ->
            Ast.Array
              {
                a_name = repl;
                a_kind = (decl (List.hd r.members)).a_kind;
                a_dims = f.dims;
              })
          folded
      in
      ({ p with decls = decls @ arrays }, areas)
