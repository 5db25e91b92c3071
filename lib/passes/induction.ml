module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr

exception Reject

(* V = V + d / V + (-d) / V - d / d + V, with d a constant. *)
let increment_of v (s : Ast.stmt) =
  match s with
  | Ast.Assign { lhs = { name; subs = [] }; rhs; _ } when String.equal name v
    -> (
      match Expr.fold_consts rhs with
      | Expr.Bin (Expr.Add, Expr.Var w, Expr.Const d) when String.equal w v ->
          Some d
      | Expr.Bin (Expr.Add, Expr.Const d, Expr.Var w) when String.equal w v ->
          Some d
      | Expr.Bin (Expr.Sub, Expr.Var w, Expr.Const d) when String.equal w v ->
          Some (-d)
      | _ -> None)
  | _ -> None

let rec stmt_mentions v = function
  | Ast.Assign { lhs; rhs; _ } ->
      String.equal lhs.name v
      || List.exists (fun e -> List.mem v (Expr.free_vars e)) lhs.subs
      || List.mem v (Expr.free_vars rhs)
  | Ast.Continue _ -> false
  | Ast.Do d ->
      String.equal d.var v
      || List.mem v (Expr.free_vars d.lo)
      || List.mem v (Expr.free_vars d.hi)
      || List.mem v (Expr.free_vars d.step)
      || List.exists (stmt_mentions v) d.body

(* [v := e] in [s], where [e] does not mention [v]: a mention left
   over is [s] assigning [v] or looping over it. *)
let subst_in_stmt v e s =
  let s = Ast.map_exprs (fun ~loops:_ -> Expr.subst v e) s in
  if stmt_mentions v s then raise Reject;
  s

(* Value of the variable right after the increment executes in iteration
   (z1, ..., zm) of the normalized loops (outermost first):
   init + d * (1 + zm + z(m-1)*Tm + ... + z1*T2*...*Tm), Tl = hi_l + 1. *)
let closed_form ~init ~d loops =
  let open Expr in
  let count =
    List.fold_left
      (fun acc (var, hi) ->
        let trips = fold_consts (Bin (Add, hi, Const 1)) in
        fold_consts (Bin (Add, Bin (Mul, acc, trips), Var var)))
      (Const 0) loops
  in
  fold_consts
    (Bin (Add, Const init, Bin (Mul, Const d, Bin (Add, count, Const 1))))

(* Rewrite the loop nest: delete the increment, substitute the closed
   form in the trailing statements of its innermost body.  Returns the
   rewritten statement and whether the increment was inside. *)
let rewrite_nest v ~init ~d stmt =
  let found = ref false in
  let rec go loops = function
    | Ast.Do dd when not !found ->
        let loops' = loops @ [ (dd.var, dd.hi) ] in
        (* Only normalized unit-step loops qualify as controlling. *)
        let normalized =
          Expr.to_const dd.lo = Some 0 && Expr.to_const dd.step = Some 1
        in
        let rec scan acc = function
          | [] -> List.rev acc
          | s :: rest -> (
              match increment_of v s with
              | Some d' when d' = d ->
                  if not normalized then raise Reject;
                  if List.exists (fun (lv, hi) ->
                         String.equal lv v || List.mem v (Expr.free_vars hi))
                       loops'
                  then raise Reject;
                  found := true;
                  let cf = closed_form ~init ~d loops' in
                  let rest' = List.map (subst_in_stmt v cf) rest in
                  List.rev_append acc rest'
              | Some _ -> raise Reject
              | None ->
                  if !found then scan (s :: acc) rest
                  else scan (go loops' s :: acc) rest)
        in
        Ast.Do { dd with body = scan [] dd.body }
    | s -> s
  in
  let s' = go [] stmt in
  (s', !found)

let try_var (p : Ast.program) v =
  (* Locate the top-level init and the increment's constant step. *)
  let d =
    let rec find = function
      | [] -> None
      | s :: rest -> (
          match increment_of v s with
          | Some d -> Some d
          | None -> (
              match s with
              | Ast.Do dd -> (
                  match find dd.body with Some d -> Some d | None -> find rest)
              | _ -> find rest))
    in
    find p.body
  in
  match d with
  | None -> None
  | Some d -> (
      (* Walk the top-level statements: a scalar constant init must come
         first, then the nest containing the increment. *)
      let rec split_init acc = function
        | [] -> None
        | (Ast.Assign { lhs = { name; subs = [] }; rhs; label = None } as s)
          :: rest
          when String.equal name v -> (
            match Expr.to_const rhs with
            | Some c -> Some (c, List.rev acc, rest)
            | None ->
                ignore s;
                None)
        | s :: rest ->
            if stmt_mentions v s then None else split_init (s :: acc) rest
      in
      match split_init [] p.body with
      | None -> None
      | Some (init, before, rest) -> (
          try
            let found = ref false in
            let rest' =
              List.map
                (fun s ->
                  if !found then
                    if stmt_mentions v s then raise Reject else s
                  else begin
                    let s', f = rewrite_nest v ~init ~d s in
                    if f then found := true
                    else if stmt_mentions v s then raise Reject;
                    s'
                  end)
                rest
            in
            if not !found then None
            else begin
              let p' = { p with body = before @ rest' } in
              (* Any surviving mention means an illegal use (e.g. a read
                 before the increment). *)
              if List.exists (stmt_mentions v) p'.body then None
              else Some p'
            end
          with Reject -> None))

let all_increment_vars (p : Ast.program) =
  let vars = ref [] in
  let rec go = function
    | Ast.Do d -> List.iter go d.body
    | Ast.Continue _ -> ()
    | Ast.Assign { lhs = { name; subs = [] }; rhs; _ } -> (
        match Expr.fold_consts rhs with
        | Expr.Bin ((Expr.Add | Expr.Sub), Expr.Var w, Expr.Const _)
        | Expr.Bin (Expr.Add, Expr.Const _, Expr.Var w) ->
            if String.equal w name && not (List.mem name !vars) then
              vars := name :: !vars
        | _ -> ())
    | Ast.Assign _ -> ()
  in
  List.iter go p.body;
  List.rev !vars

let substitute p =
  List.fold_left
    (fun p v -> match try_var p v with Some p' -> p' | None -> p)
    p (all_increment_vars p)

let candidates p =
  List.filter (fun v -> try_var p v <> None) (all_increment_vars p)
