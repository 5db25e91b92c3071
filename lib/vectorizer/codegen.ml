module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr
module Affine = Dlz_ir.Affine
module Poly = Dlz_symbolic.Poly

type plan = {
  stmt_id : int;
  stmt_name : string;
  seq_levels : int list;
  vec_levels : int list;
  interchangeable : int list;
}

type result = { text : string; plans : plan list; graph : Depgraph.t }

type stmt_info = {
  si_id : int;
  si_stmt : Ast.stmt;
  si_loops : (string * Expr.t) list; (* (var, hi), outermost first *)
}

let collect_stmts (p : Ast.program) =
  let infos = ref [] in
  let id = ref 0 in
  Ast.iter_assigns p ~f:(fun ~loops s ->
      let loop_info = List.map (fun (v, _, hi, _) -> (v, hi)) loops in
      infos := { si_id = !id; si_stmt = s; si_loops = loop_info } :: !infos;
      incr id);
  List.rev !infos

(* Render a subscript with the loop variables of levels >= k vectorized
   into array sections. *)
let section_of_sub ~vec_vars e =
  let is_vec v = List.mem_assoc v vec_vars in
  match Affine.of_expr ~is_loop_var:is_vec e with
  | None ->
      (* Fall back to plain text with a marker substitution. *)
      let e' =
        List.fold_left
          (fun e (v, hi) ->
            Expr.subst v
              (Expr.Var (Printf.sprintf "(0:%s)" (Expr.to_string hi)))
              e)
          e vec_vars
      in
      Expr.to_string e'
  | Some f -> (
      match Affine.terms f with
      | [] -> Expr.to_string (Expr.fold_consts e)
      | [ (v, c) ] -> (
          let hi = List.assoc v vec_vars in
          let base = Expr.of_poly (Affine.konst f) in
          match Poly.to_const c with
          | Some 1 ->
              let lo = Expr.to_string (Expr.fold_consts base) in
              let hi_e =
                Expr.to_string (Expr.fold_consts (Expr.Bin (Expr.Add, base, hi)))
              in
              Printf.sprintf "%s:%s" lo hi_e
          | Some ck ->
              let lo = Expr.to_string (Expr.fold_consts base) in
              let hi_e =
                Expr.to_string
                  (Expr.fold_consts
                     (Expr.Bin
                        ( Expr.Add,
                          base,
                          Expr.Bin (Expr.Mul, Expr.Const ck, hi) )))
              in
              Printf.sprintf "%s:%s:%d" lo hi_e ck
          | None ->
              let coeff = Expr.to_string (Expr.of_poly c) in
              Printf.sprintf "%s:%s+%s*(%s)"
                (Expr.to_string (Expr.fold_consts base))
                (Expr.to_string (Expr.fold_consts base))
                coeff
                (Expr.to_string (List.assoc v vec_vars)))
      | _ ->
          let e' =
            List.fold_left
              (fun e (v, hi) ->
                Expr.subst v
                  (Expr.Var (Printf.sprintf "(0:%s)" (Expr.to_string hi)))
                  e)
              e vec_vars
          in
          Expr.to_string e')

let render_vector_stmt buf indent info ~from_level =
  let vec_vars =
    List.filteri (fun i _ -> i + 1 >= from_level) info.si_loops
  in
  match info.si_stmt with
  | Ast.Assign { lhs; rhs; _ } ->
      let render_ref (r : Ast.aref) =
        if r.subs = [] then r.name
        else
          r.name ^ "("
          ^ String.concat "," (List.map (section_of_sub ~vec_vars) r.subs)
          ^ ")"
      in
      let rec render_expr e =
        match e with
        | Expr.Const c -> string_of_int c
        | Expr.Var v -> (
            match List.assoc_opt v vec_vars with
            | Some hi -> Printf.sprintf "(0:%s)" (Expr.to_string hi)
            | None -> v)
        | Expr.Neg a -> "-" ^ render_expr a
        | Expr.Bin (op, a, b) ->
            let sym =
              match op with
              | Expr.Add -> "+"
              | Expr.Sub -> "-"
              | Expr.Mul -> "*"
              | Expr.Div -> "/"
            in
            "(" ^ render_expr a ^ sym ^ render_expr b ^ ")"
        | Expr.Call (f, args) ->
            render_ref { Ast.name = f; subs = args }
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%s = %s\n"
           (String.make indent ' ')
           (render_ref lhs) (render_expr rhs))
  | s ->
      Buffer.add_string buf
        (Format.asprintf "%s%a\n" (String.make indent ' ') Ast.pp_stmt s)

let run ?cascade ?env (p : Ast.program) =
  let graph = Depgraph.build ?cascade ?env p in
  let infos = collect_stmts p in
  let info_of = Array.of_list infos in
  let buf = Buffer.create 256 in
  let plans = ref [] in
  let rec codegen region k indent =
    let region_set = region in
    let edges =
      Depgraph.edges_at_level graph k
      |> List.filter (fun (e : Depgraph.edge) ->
             List.mem e.e_src region_set && List.mem e.e_dst region_set)
    in
    let pairs = List.map (fun (e : Depgraph.edge) -> (e.e_src, e.e_dst)) edges in
    let comps =
      Scc.compute ~n:graph.Depgraph.nstmts ~edges:pairs
      |> List.map (List.filter (fun v -> List.mem v region_set))
      |> List.filter (fun c -> c <> [])
    in
    List.iter
      (fun comp ->
        let cyclic = Scc.is_cyclic ~edges:pairs comp in
        let depth_ok =
          List.for_all
            (fun s -> List.length info_of.(s).si_loops >= k)
            comp
        in
        if cyclic && depth_ok then begin
          (* Sequential loop at level k around the component. *)
          let var, hi =
            match info_of.(List.hd comp).si_loops with
            | loops when List.length loops >= k -> List.nth loops (k - 1)
            | _ -> assert false
          in
          Buffer.add_string buf
            (Printf.sprintf "%sDO %s = 0, %s\n"
               (String.make indent ' ')
               var (Expr.to_string hi));
          (* Interchange hint: is the cycle actually carried here? *)
          let carried_here =
            List.exists
              (fun (e : Depgraph.edge) ->
                e.Depgraph.e_level = k
                && List.mem e.Depgraph.e_src comp
                && List.mem e.Depgraph.e_dst comp)
              edges
          in
          List.iter
            (fun s ->
              plans :=
                (s, if carried_here then `Seq k else `SeqFree k)
                :: !plans)
            comp;
          codegen comp (k + 1) (indent + 2);
          Buffer.add_string buf
            (Printf.sprintf "%sENDDO\n" (String.make indent ' '))
        end
        else
          List.iter
            (fun s ->
              let info = info_of.(s) in
              let depth = List.length info.si_loops in
              List.iteri
                (fun i _ ->
                  if i + 1 >= k then plans := (s, `Vec (i + 1)) :: !plans)
                info.si_loops;
              ignore depth;
              render_vector_stmt buf indent info ~from_level:k)
            comp)
      comps
  in
  let all = List.map (fun i -> i.si_id) infos in
  codegen all 1 0;
  let plan_of_stmt s =
    let entries = List.filter (fun (s', _) -> s' = s) !plans in
    {
      stmt_id = s;
      stmt_name = graph.Depgraph.stmt_names.(s);
      seq_levels =
        List.sort_uniq Int.compare
          (List.filter_map
             (function _, (`Seq k | `SeqFree k) -> Some k | _ -> None)
             entries);
      vec_levels =
        List.sort_uniq Int.compare
          (List.filter_map
             (function _, `Vec k -> Some k | _ -> None)
             entries);
      interchangeable =
        List.sort_uniq Int.compare
          (List.filter_map
             (function _, `SeqFree k -> Some k | _ -> None)
             entries);
    }
  in
  { text = Buffer.contents buf; plans = List.map plan_of_stmt all; graph }
