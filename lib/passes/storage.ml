module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr
module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume

type area = {
  members : string list;
  bases : Poly.t list;
  repl : string;
  kept_dims : int;
}

type error =
  | Conflict of string
  | Two_blocks of string * string
  | Unplaced of string
  | Undeclared of string
  | Wrong_rank of string

exception Error of error

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
   joining two units moves the whole of one.  Rebased to start at 0, the
   lowest base decided under [env]; when no base provably is, at minus
   the sum of the member sizes, a bound below every base of an area
   whose anchors lie inside their arrays. *)
let place ~env ~size ~anchor r =
  let at = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace at n (n, Poly.zero)) r.members;
  List.iter
    (function
      | Block (blk, ms) ->
          ignore
            (List.fold_left
               (fun base n ->
                 if Hashtbl.mem at n then (
                   Hashtbl.replace at n ("/" ^ blk, base);
                   Poly.add base (size n))
                 else base)
               Poly.zero ms)
      | Group _ -> ())
    r.links;
  let addr (n, subs) =
    let unit, base = Hashtbl.find at n in
    (unit, if subs = [] then base else Poly.add base (anchor n subs))
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
                        if u = unit then
                          Some (target, Poly.add b (Poly.sub want got))
                        else Some (u, b))
                      at
                  else if not (Poly.equal got want) then
                    raise (Error (Conflict (fst m))))
                rest)
      | Block _ -> ())
    r.links;
  let bases = List.map (fun n -> snd (Hashtbl.find at n)) r.members in
  let candidates = Poly.zero :: bases in
  let lowest b = List.for_all (Assume.le env b) candidates in
  let rebase lowest = List.map (fun b -> Poly.sub b lowest) bases in
  match List.find_opt lowest candidates with
  | Some b -> rebase b
  | None ->
      let below = Poly.neg (Poly.sum (List.map size r.members)) in
      if lowest below then rebase below
      else raise (Error (Unplaced (List.hd r.members)))

let blocks r =
  List.filter_map (function Block (b, _) -> Some b | Group _ -> None) r.links

let layout ~size ~anchor p =
  List.map
    (fun r ->
      let name =
        match blocks r with b :: _ -> "/" ^ b | [] -> List.hd r.members
      in
      let bases =
        place ~env:Assume.empty
          ~size:(fun n -> Poly.const (size n))
          ~anchor:(fun n subs -> Poly.const (anchor n subs))
          r
      in
      (name, List.combine r.members (List.map Poly.const_value bases)))
    (regions p)

(* --- folding -------------------------------------------------------------- *)

(* One dimension: declared [lo : lo+extent-1]. *)
type dim = { lo : Poly.t; extent : Poly.t }

let size dims =
  List.fold_left (fun acc d -> Poly.mul acc d.extent) Poly.one dims

let leading kept l = List.filteri (fun i _ -> i < List.length l - kept) l
let trailing kept l = List.filteri (fun i _ -> i >= List.length l - kept) l
let expr p = Expr.fold_consts (Expr.of_poly p)

(* [e] of member [n] as a polynomial over its symbols. *)
let poly n e =
  match
    Dlz_ir.Affine.of_expr ~is_loop_var:(fun _ -> false) (Expr.fold_consts e)
  with
  | Some f -> Dlz_ir.Affine.konst f
  | None -> raise (Error (Unplaced n))

(* Folds [term acc dim stride sub] over [dims] and [subs] from [init],
   each stride the product of the extents before it: column-major. *)
let column_major term init dims subs =
  fst
    (List.fold_left2
       (fun (acc, stride) d sb ->
         (term acc d stride sb, Poly.mul stride d.extent))
       (init, Poly.one) dims subs)

(* The dimensions of an area's replacement array, how many of them are
   kept member dimensions, and each member's base and subscript rewrite,
   in member order. *)
type fold = {
  dims : Ast.dim list;
  kept : int;
  bases : Poly.t list;
  rewrites : (Expr.t list -> Expr.t list) list;
}

(* One fold for every area: each member at its base, its leading
   dimensions column-major in the first subscript of one array that keeps
   the trailing dimensions every member shares, when all start together
   with equal leading totals.  Bounds, bases and the total are
   polynomials, compared under the facts that every declared extent is
   at least 1. *)
let fold decl r =
  let shapes =
    List.map
      (fun n ->
        List.map
          (fun (d : Ast.dim) ->
            let lo = poly n d.lo in
            { lo; extent = Poly.add (Poly.sub (poly n d.hi) lo) Poly.one })
          (decl n).Ast.a_dims)
      r.members
  in
  let shape n = List.assoc n (List.combine r.members shapes) in
  let env =
    List.fold_left
      (fun env d -> Assume.assume_nonneg (Poly.sub d.extent Poly.one) env)
      Assume.empty (List.concat shapes)
  in
  let anchor n subs =
    if List.length subs <> List.length (shape n) then
      raise (Error (Unplaced n));
    column_major
      (fun acc d stride sb ->
        Poly.add acc (Poly.mul stride (Poly.sub (poly n sb) d.lo)))
      Poly.zero (shape n) subs
  in
  let bases = place ~env ~size:(fun n -> size (shape n)) ~anchor r in
  (* Longest trailing run of Poly-equal extents (ranks may differ, so
     compare from the end), short of every dimension of a member. *)
  let kept =
    let rev = List.map List.rev shapes in
    let min_rank =
      List.fold_left (fun m s -> min m (List.length s)) max_int rev
    in
    let extent k s = (List.nth s k).extent in
    let rec run k =
      if
        k < min_rank - 1
        && List.for_all
             (fun s -> Poly.equal (extent k s) (extent k (List.hd rev)))
             rev
      then run (k + 1)
      else k
    in
    let k = run 0 in
    match List.map (fun s -> size (leading k s)) shapes with
    | p0 :: rest
      when List.for_all Poly.is_zero bases
           && List.for_all (Poly.equal p0) rest ->
        k
    | _ -> 0
  in
  let ends =
    List.map2 (fun s b -> Poly.add b (size (leading kept s))) shapes bases
  in
  (* The largest end, or their sum when none provably dominates. *)
  let total =
    match
      List.fold_left
        (fun acc e -> Option.bind acc (Assume.max2 env e))
        (Some (List.hd ends)) (List.tl ends)
    with
    | Some t -> t
    | None -> Poly.sum ends
  in
  let dim n = { Ast.lo = Expr.Const 0; hi = expr (Poly.sub n Poly.one) } in
  let rewrite s base subs =
    let linear =
      column_major
        (fun acc d stride sb ->
          let zero_based = Expr.Bin (Expr.Sub, sb, expr d.lo) in
          let term = Expr.Bin (Expr.Mul, expr stride, zero_based) in
          Expr.Bin (Expr.Add, acc, term))
        (expr base) (leading kept s) (leading kept subs)
    in
    Expr.fold_consts linear
    :: List.map2
         (fun d sb -> Expr.fold_consts (Expr.Bin (Expr.Sub, sb, expr d.lo)))
         (trailing kept s) (trailing kept subs)
  in
  {
    dims =
      dim total
      :: List.map (fun d -> dim d.extent) (trailing kept (List.hd shapes));
    kept;
    bases;
    rewrites = List.map2 rewrite shapes bases;
  }

let associate (p : Ast.program) =
  match regions p with
  | [] -> (p, [])
  | all ->
      let decl n = Option.get (Ast.find_array p n) in
      let members = List.concat_map (fun r -> r.members) all in
      (* Members referenced with a subscript count other than their rank. *)
      let wrong_rank = Hashtbl.create 4 in
      ignore
        (Ast.map_refs
           (fun ~loops:_ (r : Ast.aref) ->
             if
               List.mem r.name members
               && List.length r.subs <> List.length (decl r.name).a_dims
             then Hashtbl.replace wrong_rank r.name ();
             r)
           p);
      let fold r =
        (match blocks r with
        | x :: y :: _ -> raise (Error (Two_blocks (x, y)))
        | _ -> ());
        (match
           List.find_opt
             (fun n -> Ast.find_array p n = None)
             (List.concat_map names r.links)
         with
        | Some n -> raise (Error (Undeclared n))
        | None -> ());
        (match List.find_opt (Hashtbl.mem wrong_rank) r.members with
        | Some n -> raise (Error (Wrong_rank n))
        | None -> ());
        fold decl r
      in
      (* A lone member stays as it is, but its anchors must agree. *)
      let regions =
        List.filter
          (fun r ->
            match r.members with
            | [ _ ] ->
                (try ignore (fold r)
                 with Error (Unplaced _ | Undeclared _ | Wrong_rank _) -> ());
                false
            | _ -> true)
          all
      in
      let lin = ref 0 in
      let folded =
        List.map
          (fun r ->
            let f = fold r in
            let repl =
              match blocks r with
              | [ b ] -> "CB" ^ b
              | _ ->
                  incr lin;
                  Printf.sprintf "LIN%d" !lin
            in
            (r, repl, f))
          regions
      in
      let areas =
        List.map
          (fun (r, repl, f) ->
            { members = r.members; bases = f.bases; repl; kept_dims = f.kept })
          folded
      in
      let infos =
        List.concat_map
          (fun (r, repl, f) ->
            List.map2 (fun n rw -> (n, (repl, rw))) r.members f.rewrites)
          folded
      in
      let p =
        Ast.map_refs
          (fun ~loops:_ (r : Ast.aref) ->
            match List.assoc_opt r.name infos with
            | Some (repl, rw) -> { Ast.name = repl; subs = rw r.subs }
            | None -> r)
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
