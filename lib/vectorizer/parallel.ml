module Ast = Dlz_ir.Ast

type loop_report = {
  lr_var : string;
  lr_level : int;
  lr_path : string list;
  lr_parallel : bool;
  lr_carried : int;
}

(* Statement ids (program order of assignments) inside each loop. *)
let loops_with_stmts (p : Ast.program) =
  let counter = ref 0 in
  let loops = ref [] in
  let rec go path level = function
    | Ast.Assign _ ->
        let id = !counter in
        incr counter;
        [ id ]
    | Ast.Continue _ -> []
    | Ast.Do d ->
        let inner =
          List.concat_map (go (path @ [ d.var ]) (level + 1)) d.body
        in
        loops := (d.var, level + 1, path, inner) :: !loops;
        inner
  in
  List.iter (fun s -> ignore (go [] 0 s)) p.body;
  List.rev !loops

let of_graph p (graph : Depgraph.t) =
  List.map
    (fun (var, level, path, stmts) ->
      let carried =
        List.length
          (List.filter
             (fun (e : Depgraph.edge) ->
               e.Depgraph.e_level = level
               && List.mem e.Depgraph.e_src stmts
               && List.mem e.Depgraph.e_dst stmts)
             graph.Depgraph.edges)
      in
      {
        lr_var = var;
        lr_level = level;
        lr_path = path;
        lr_parallel = carried = 0;
        lr_carried = carried;
      })
    (loops_with_stmts p)

let report ?cascade ?budget ?pool ?env p =
  of_graph p (Depgraph.build ?cascade ?budget ?pool ?env p)

let fully_parallel reports = List.for_all (fun r -> r.lr_parallel) reports
