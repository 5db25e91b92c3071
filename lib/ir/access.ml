module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume

type loop = { l_var : string; l_ub : Poly.t }
type sub = Aff of Affine.t | Opaque

type t = {
  acc_id : int;
  stmt_id : int;
  stmt_name : string;
  array : string;
  rw : [ `Read | `Write ];
  loops : loop list;
  subs : sub list;
}

let common_loops a b =
  let rec go = function
    | la :: ra, lb :: rb when String.equal la.l_var lb.l_var ->
        la :: go (ra, rb)
    | _ -> []
  in
  go (a.loops, b.loops)

(* Rectangular extension of a bound expression: the maximum of [e] over
   the box spanned by the enclosing [loops].  Coefficients of unknown sign
   or non-affine bounds are replaced by a fresh nonnegative symbol. *)
let rect_bound env ~fresh loops e =
  let is_loop_var v = List.exists (fun l -> String.equal l.l_var v) loops in
  let fallback () =
    let s = fresh () in
    (Poly.sym s, Assume.assume_ge s 0 env)
  in
  match Affine.of_expr ~is_loop_var e with
  | None -> fallback ()
  | Some f ->
      let rec go acc env = function
        | [] -> Some (acc, env)
        | (v, c) :: rest -> (
            let ub = (List.find (fun l -> String.equal l.l_var v) loops).l_ub in
            match Assume.sign env c with
            | Assume.Positive -> go (Poly.add acc (Poly.mul c ub)) env rest
            | Assume.Zero -> go acc env rest
            | Assume.Negative -> go acc env rest (* max at var = 0 *)
            | Assume.Unknown -> None)
      in
      (match go (Affine.konst f) env (Affine.terms f) with
      | Some (p, env) -> (p, env)
      | None -> fallback ())

let of_program ?(env = Assume.empty) ?(arrays_only = true) (p : Ast.program) =
  let accs = ref [] in
  let env = ref env in
  let next_acc = ref 0 in
  let next_stmt = ref 0 in
  let fresh_counter = ref 0 in
  let fresh () =
    incr fresh_counter;
    Printf.sprintf "UB%%%d" !fresh_counter
  in
  let is_array name = Ast.find_array p name <> None in
  let rec go loops = function
    | Ast.Continue _ -> ()
    | Ast.Do d ->
        (match (Expr.to_const d.lo, Expr.to_const d.step) with
        | Some 0, Some 1 -> ()
        | _ ->
            failwith
              (Printf.sprintf "Access.of_program: loop %s is not normalized"
                 d.var));
        let ub, env' = rect_bound !env ~fresh loops d.hi in
        (* Dependence witnesses only exist when the loop executes, so
           assuming a nonempty range ([ub >= 0]) is sound and gives the
           symbolic layer facts like [KK >= 1] from a bound of [KK-1]. *)
        env := Assume.assume_nonneg ub env';
        let loop = { l_var = d.var; l_ub = ub } in
        List.iter (go (loops @ [ loop ])) d.body
    | Ast.Assign _ as s ->
        let stmt_id = !next_stmt in
        incr next_stmt;
        let stmt_name = Printf.sprintf "S%d" (stmt_id + 1) in
        let is_loop_var v =
          List.exists (fun l -> String.equal l.l_var v) loops
        in
        let mk (r : Ast.aref) rw =
          if arrays_only && not (is_array r.name) then ()
          else begin
            let subs =
              List.map
                (fun e ->
                  match Affine.of_expr ~is_loop_var e with
                  | Some f -> Aff f
                  | None -> Opaque)
                r.subs
            in
            let acc_id = !next_acc in
            incr next_acc;
            accs :=
              { acc_id; stmt_id; stmt_name; array = r.name; rw; loops; subs }
              :: !accs
          end
        in
        List.iter (fun (r, rw) -> mk r rw) (Ast.assign_refs s)
  in
  List.iter (go []) p.body;
  (List.rev !accs, !env)
