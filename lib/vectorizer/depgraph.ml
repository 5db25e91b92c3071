module Dirvec = Dlz_deptest.Dirvec
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Verdict = Dlz_deptest.Verdict
module Classify = Dlz_deptest.Classify
module Analyze = Dlz_engine.Analyze
module Engine = Dlz_engine.Engine
module Strategy = Dlz_engine.Strategy

type edge = {
  e_src : int;
  e_dst : int;
  e_vec : Dirvec.t;
  e_level : int;
  e_kind : Classify.kind;
}

type t = { nstmts : int; stmt_names : string array; edges : edge list }

(* First level whose component is not '=': the carrying level. *)
let classify_vec v =
  let n = Array.length v in
  let rec go i =
    if i >= n then `LoopIndependent
    else
      match v.(i) with
      | Dirvec.Eq -> go (i + 1)
      | Dirvec.Lt -> `Forward (i + 1)
      | Dirvec.Gt -> `Backward (i + 1)
      | _ -> `Forward (i + 1) (* non-basic: conservatively forward *)
  in
  go 0

(* Edges contributed by one answered pair. *)
let edges_of_result ((pr : Engine.pair), (r : Strategy.result)) =
  let a = pr.Engine.src and b = pr.Engine.dst in
  if r.Strategy.verdict = Verdict.Independent then []
  else
    let basics =
      List.concat_map Analyze.decomposition r.Strategy.dirvecs
      |> List.sort_uniq Dirvec.compare
      |> List.filter (fun v ->
             (* The identity instance of a single reference is
                not a dependence. *)
             not (pr.Engine.self && Array.for_all (( = ) Dirvec.Eq) v))
    in
    List.concat_map
      (fun v ->
        let add src dst vec level =
          let kind = Classify.kind ~src:src.Access.rw ~dst:dst.Access.rw in
          [
            {
              e_src = src.Access.stmt_id;
              e_dst = dst.Access.stmt_id;
              e_vec = vec;
              e_level = level;
              e_kind = kind;
            };
          ]
        in
        match classify_vec v with
        | `Forward lvl -> add a b v lvl
        | `Backward lvl -> add b a (Dirvec.reverse v) lvl
        | `LoopIndependent ->
            (* Same statement: the read executes before the
               write; within-statement flow does not constrain
               loop rearrangement.  Across statements, orient
               by textual order. *)
            if a.Access.stmt_id < b.Access.stmt_id then add a b v max_int
            else if b.Access.stmt_id < a.Access.stmt_id then
              add b a v max_int
            else [])
      basics

let of_results accs results =
  let nstmts =
    List.fold_left (fun m a -> max m (a.Access.stmt_id + 1)) 0 accs
  in
  let stmt_names = Array.make nstmts "" in
  List.iter (fun a -> stmt_names.(a.Access.stmt_id) <- a.Access.stmt_name) accs;
  (* Deduplicate identical edges (also fixes the final order, so the
     graph is byte-identical for any job count). *)
  let edges =
    List.sort_uniq Stdlib.compare (List.concat_map edges_of_result results)
  in
  { nstmts; stmt_names; edges }

let build ?cascade ?budget ?pool ?(env = Assume.empty) prog =
  Dlz_base.Trace.with_span ~cat:"driver" "depgraph.build" @@ fun () ->
  let accs, env = Access.of_program ~env prog in
  of_results accs (Engine.query_all ?cascade ?budget ?pool ~env accs)

let edges_at_level g level =
  List.filter (fun e -> e.e_level >= level) g.edges

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "%s -> %s %s level %s [%s]@,"
        g.stmt_names.(e.e_src) g.stmt_names.(e.e_dst)
        (Dirvec.to_string e.e_vec)
        (if e.e_level = max_int then "inf" else string_of_int e.e_level)
        (Classify.to_string e.e_kind))
    g.edges;
  Format.fprintf ppf "@]"
