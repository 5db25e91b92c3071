(* Tests for dlz_vec: SCC computation, dependence-graph construction and
   the Allen-Kennedy codegen, including safety of vectorized levels. *)

module Scc = Dlz_vec.Scc
module Depgraph = Dlz_vec.Depgraph
module Codegen = Dlz_vec.Codegen
module Analyze = Dlz_engine.Analyze
module Dirvec = Dlz_deptest.Dirvec
module F77 = Dlz_frontend.F77_parser
module Pipeline = Dlz_passes.Pipeline
module Access = Dlz_ir.Access
module Strategy = Dlz_engine.Strategy

let prepare src = Pipeline.prepare_program (F77.parse src)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- SCC ---------------------------------------------------------------- *)

let scc_units =
  [
    Alcotest.test_case "chain" `Quick (fun () ->
        let comps = Scc.compute ~n:3 ~edges:[ (0, 1); (1, 2) ] in
        Alcotest.(check (list (list int))) "singletons in order"
          [ [ 0 ]; [ 1 ]; [ 2 ] ] comps);
    Alcotest.test_case "cycle" `Quick (fun () ->
        let comps = Scc.compute ~n:3 ~edges:[ (0, 1); (1, 0); (1, 2) ] in
        Alcotest.(check (list (list int))) "cycle then sink"
          [ [ 0; 1 ]; [ 2 ] ] comps);
    Alcotest.test_case "self loop is cyclic" `Quick (fun () ->
        Alcotest.(check bool) "cyclic" true
          (Scc.is_cyclic ~edges:[ (0, 0) ] [ 0 ]);
        Alcotest.(check bool) "acyclic" false (Scc.is_cyclic ~edges:[] [ 0 ]);
        Alcotest.(check bool) "multi-node cyclic" true
          (Scc.is_cyclic ~edges:[] [ 0; 1 ]));
    Alcotest.test_case "topological order respects edges" `Quick (fun () ->
        let edges = [ (3, 1); (1, 0); (3, 0); (2, 3) ] in
        let comps = Scc.compute ~n:4 ~edges in
        let pos =
          List.concat_map Fun.id comps
          |> List.mapi (fun i v -> (v, i))
        in
        List.iter
          (fun (u, v) ->
            if List.assoc u pos > List.assoc v pos then
              Alcotest.failf "edge %d->%d out of order" u v)
          edges);
  ]

(* --- dependence graph ------------------------------------------------------ *)

let graph_units =
  [
    Alcotest.test_case "serial loop has a level-1 edge" `Quick (fun () ->
        let g =
          Depgraph.build
            (prepare Dlz_driver.Fragments.intro_serial)
        in
        Alcotest.(check bool) "some edge at level 1" true
          (List.exists
             (fun (e : Depgraph.edge) -> e.Depgraph.e_level = 1)
             g.Depgraph.edges));
    Alcotest.test_case "parallel loop has no edges" `Quick (fun () ->
        let g =
          Depgraph.build (prepare Dlz_driver.Fragments.intro_parallel)
        in
        Alcotest.(check int) "empty" 0 (List.length g.Depgraph.edges));
    Alcotest.test_case "edges oriented source-first" `Quick (fun () ->
        let g = Depgraph.build (prepare Dlz_driver.Fragments.fig3_program) in
        (* every edge's vector is plausible after orientation *)
        List.iter
          (fun (e : Depgraph.edge) ->
            if not (Dirvec.plausible e.Depgraph.e_vec) then
              Alcotest.failf "implausible oriented edge %s"
                (Dirvec.to_string e.Depgraph.e_vec))
          g.Depgraph.edges);
    Alcotest.test_case "star vectors decompose into basic edges" `Quick
      (fun () ->
        (* C(J) self dependence within a 3-deep nest must yield edges at
           levels 1 and 3 (carried by I and K), not a bogus level-1-only
           edge. *)
        let g = Depgraph.build (prepare Dlz_driver.Fragments.ib_program) in
        let c_edges =
          List.filter
            (fun (e : Depgraph.edge) ->
              g.Depgraph.stmt_names.(e.Depgraph.e_src) = "S1"
              && e.Depgraph.e_src = e.Depgraph.e_dst)
            g.Depgraph.edges
        in
        let levels =
          List.sort_uniq compare
            (List.map (fun (e : Depgraph.edge) -> e.Depgraph.e_level) c_edges)
        in
        Alcotest.(check (list int)) "levels 1 and 3" [ 1; 3 ] levels);
  ]

(* The list construction [Depgraph.of_results] replaced, kept as its
   reference: every basic vector of each answered pair's decomposition,
   oriented by its first non-[=] level, as edge records sorted and
   deduplicated by [Stdlib.compare]. *)
let reference_edges results =
  let module Engine = Dlz_engine.Engine in
  let module Strategy = Dlz_engine.Strategy in
  let decomposition dv =
    Array.fold_right
      (fun d acc ->
        List.concat_map
          (fun child -> List.map (fun tail -> child :: tail) acc)
          (Dirvec.refinements d))
      dv [ [] ]
    |> List.map Array.of_list
  in
  let edges_of ((pr : Engine.pair), (r : Strategy.result)) =
    let a = pr.Engine.src and b = pr.Engine.dst in
    let edge (src : Access.t) (dst : Access.t) vec level =
      [ { Depgraph.e_src = src.stmt_id; e_dst = dst.stmt_id; e_vec = vec;
          e_level = level;
          e_kind = Dlz_deptest.Classify.kind ~src:src.rw ~dst:dst.rw } ]
    in
    let rec lead v i =
      if i = Array.length v then None
      else if v.(i) = Dirvec.Eq then lead v (i + 1)
      else Some (i + 1, v.(i))
    in
    if r.Strategy.verdict = Dlz_deptest.Verdict.Independent then []
    else
      List.concat_map decomposition r.Strategy.dirvecs
      |> List.sort_uniq Dirvec.compare
      |> List.filter (fun v ->
             not (pr.Engine.self && Array.for_all (( = ) Dirvec.Eq) v))
      |> List.concat_map (fun v ->
             match lead v 0 with
             | Some (lvl, Dirvec.Lt) -> edge a b v lvl
             | Some (lvl, _) -> edge b a (Dirvec.reverse v) lvl
             | None ->
                 if a.stmt_id < b.stmt_id then edge a b v max_int
                 else if b.stmt_id < a.stmt_id then edge b a v max_int
                 else [])
  in
  List.sort_uniq Stdlib.compare (List.concat_map edges_of results)

(* Random answered pairs among the write and the read of up to four
   statements: self pairs, pairs inside one statement, independent
   verdicts, and vectors over 0-3 levels or over 22 (two ints a
   vector; one or two levels vary there), mixed in one graph. *)
let gen_answered =
  let module Engine = Dlz_engine.Engine in
  let module Strategy = Dlz_engine.Strategy in
  QCheck.Gen.(
    let* nstmts = int_range 1 4 in
    let accs =
      List.concat_map
        (fun s ->
          List.map
            (fun rw ->
              { Access.acc_id = (2 * s) + if rw = `Write then 0 else 1;
                stmt_id = s; stmt_name = Printf.sprintf "S%d" (s + 1);
                array = "A"; rw; loops = []; subs = [] })
            [ `Write; `Read ])
        (List.init nstmts Fun.id)
    in
    let vec n =
      let* varying =
        if n <= 3 then return (List.init n Fun.id)
        else
          let+ l = int_range 0 (n - 1) in
          List.sort_uniq compare [ l; n - 1 ]
      in
      let* fixed = array_repeat n (oneofl Dirvec.[ Lt; Eq; Eq; Gt ]) in
      let+ dirs =
        flatten_l
          (List.map
             (fun _ -> oneofl Dirvec.[ Lt; Eq; Gt; Le; Ge; Ne; Star ])
             varying)
      in
      let v = Array.copy fixed in
      List.iter2 (fun l d -> v.(l) <- d) varying dirs;
      v
    in
    let pair =
      let* src = oneofl (List.filter (fun a -> a.Access.rw = `Write) accs) in
      let* self = bool in
      let* dst = if self then return src else oneofl accs in
      let* n = oneofl [ 0; 1; 2; 3; 22 ] in
      let* dirvecs = list_size (int_range 0 4) (vec n) in
      let+ independent = frequencyl [ (1, true); (6, false) ] in
      ( { Engine.src; dst; self;
          problem =
            Dlz_deptest.Problem.make ~n_common:n ~common_ubs:[]
              ~opaque_dims:0 [] },
        { Strategy.verdict =
            (if independent then Dlz_deptest.Verdict.Independent
             else Dlz_deptest.Verdict.Dependent);
          dirvecs; distances = []; decided_by = "test"; degraded = [] } )
    in
    let+ results = list_size (int_range 0 8) pair in
    (accs, results))

let graph_props =
  [
    QCheck.Test.make ~name:"packed edges = list reference" ~count:3000
      (QCheck.make
         ~print:(fun (_, results) ->
           let rw (a : Access.t) = if a.rw = `Write then "w" else "r" in
           String.concat "\n"
             (List.map
                (fun ((pr : Dlz_engine.Engine.pair), (r : Strategy.result)) ->
                  Printf.sprintf "%s%s -> %s%s%s %s: %s"
                    pr.src.stmt_name (rw pr.src) pr.dst.stmt_name
                    (rw pr.dst)
                    (if pr.self then " self" else "")
                    (Dlz_deptest.Verdict.to_string r.verdict)
                    (String.concat " " (List.map Dirvec.to_string r.dirvecs)))
                results))
         gen_answered)
      (fun (accs, results) ->
        (Depgraph.of_results accs results).Depgraph.edges
        = reference_edges results);
  ]

(* --- codegen ---------------------------------------------------------------- *)

let codegen_units =
  [
    Alcotest.test_case "parallel loop vectorizes" `Quick (fun () ->
        let r = Codegen.run (prepare Dlz_driver.Fragments.intro_parallel) in
        Alcotest.(check bool) "array syntax" true
          (contains r.Codegen.text "D(0:4)");
        Alcotest.(check bool) "no DO" false (contains r.Codegen.text "DO "));
    Alcotest.test_case "serial loop stays a DO" `Quick (fun () ->
        let r = Codegen.run (prepare Dlz_driver.Fragments.intro_serial) in
        Alcotest.(check bool) "has DO" true (contains r.Codegen.text "DO ");
        match r.Codegen.plans with
        | [ p ] ->
            Alcotest.(check (list int)) "seq level 1" [ 1 ] p.Codegen.seq_levels
        | _ -> Alcotest.fail "one statement expected");
    Alcotest.test_case "fig3 distributes" `Quick (fun () ->
        let r = Codegen.run (prepare Dlz_driver.Fragments.fig3_program) in
        (* X(i) statement is independent of the i-loop cycle: vectorized. *)
        let s1 = List.find (fun p -> p.Codegen.stmt_name = "S1") r.Codegen.plans in
        Alcotest.(check (list int)) "S1 vectorized" [ 1 ] s1.Codegen.vec_levels;
        (* A's k loop is vectorizable. *)
        let s3 = List.find (fun p -> p.Codegen.stmt_name = "S3") r.Codegen.plans in
        Alcotest.(check bool) "S3 vectorizes k" true
          (List.mem 3 s3.Codegen.vec_levels);
        Alcotest.(check bool) "S3 sequential at 1" true
          (List.mem 1 s3.Codegen.seq_levels));
    Alcotest.test_case "delinearization unlocks the IB statement" `Quick
      (fun () ->
        let prog = prepare Dlz_driver.Fragments.ib_program in
        let delin =
          Codegen.run ~cascade:(Analyze.cascade_of_mode Analyze.Delinearize)
            prog
        in
        let classic =
          Codegen.run ~cascade:(Analyze.cascade_of_mode Analyze.Classic) prog
        in
        let plan_of r name =
          List.find (fun p -> p.Codegen.stmt_name = name) r.Codegen.plans
        in
        Alcotest.(check (list int)) "delin: B fully vector" [ 1; 2; 3 ]
          (plan_of delin "S2").Codegen.vec_levels;
        Alcotest.(check (list int)) "classic: B fully sequential" [ 1; 2; 3 ]
          (plan_of classic "S2").Codegen.seq_levels);
    Alcotest.test_case "vectorized levels carry no self dependence" `Quick
      (fun () ->
        (* safety: for every statement and vectorized level, the graph has
           no self edge carried at that level. *)
        List.iter
          (fun src ->
            let r = Codegen.run (prepare src) in
            List.iter
              (fun (p : Codegen.plan) ->
                List.iter
                  (fun lvl ->
                    if
                      List.exists
                        (fun (e : Depgraph.edge) ->
                          e.Depgraph.e_src = p.Codegen.stmt_id
                          && e.Depgraph.e_dst = p.Codegen.stmt_id
                          && e.Depgraph.e_level = lvl)
                        r.Codegen.graph.Depgraph.edges
                    then
                      Alcotest.failf "%s vectorized at carried level %d"
                        p.Codegen.stmt_name lvl)
                  p.Codegen.vec_levels)
              r.Codegen.plans)
          [
            Dlz_driver.Fragments.intro_serial;
            Dlz_driver.Fragments.intro_parallel;
            Dlz_driver.Fragments.eq1_program;
            Dlz_driver.Fragments.fig3_program;
            Dlz_driver.Fragments.mhl_program;
          ]);
    Alcotest.test_case "strided section rendering" `Quick (fun () ->
        let r = Codegen.run (prepare Dlz_driver.Fragments.eq1_program) in
        (* C(i + 10*j) with both loops vectorized falls back to the
           substitution rendering with both ranges visible. *)
        Alcotest.(check bool) "both ranges shown" true
          (contains r.Codegen.text "(0:4)" && contains r.Codegen.text "(0:9)"));
  ]

(* --- per-loop parallelism report ------------------------------------------------ *)

module Parallel = Dlz_vec.Parallel

let parallel_units =
  [
    Alcotest.test_case "serial vs parallel intro loops" `Quick (fun () ->
        let r1 = Parallel.report (prepare Dlz_driver.Fragments.intro_serial) in
        (match r1 with
        | [ l ] ->
            Alcotest.(check bool) "serial" false l.Parallel.lr_parallel;
            Alcotest.(check bool) "carried > 0" true (l.Parallel.lr_carried > 0)
        | _ -> Alcotest.fail "one loop expected");
        let r2 =
          Parallel.report (prepare Dlz_driver.Fragments.intro_parallel)
        in
        match r2 with
        | [ l ] -> Alcotest.(check bool) "parallel" true l.Parallel.lr_parallel
        | _ -> Alcotest.fail "one loop expected");
    Alcotest.test_case "eq1 nest fully parallel" `Quick (fun () ->
        let r = Parallel.report (prepare Dlz_driver.Fragments.eq1_program) in
        Alcotest.(check int) "two loops" 2 (List.length r);
        Alcotest.(check bool) "fully parallel" true (Parallel.fully_parallel r));
    Alcotest.test_case "ib nest: delin parallel, classic not" `Quick (fun () ->
        let prog = prepare Dlz_driver.Fragments.ib_program in
        let delin =
          Parallel.report
            ~cascade:(Analyze.cascade_of_mode Analyze.Delinearize) prog
        in
        let classic =
          Parallel.report ~cascade:(Analyze.cascade_of_mode Analyze.Classic)
            prog
        in
        (* The C(J) recurrence keeps I and K serial either way; the
           point is the J loop (and B's contribution). *)
        let j_of r =
          List.find (fun l -> l.Parallel.lr_var = "J") r
        in
        Alcotest.(check bool) "J parallel with delin" true
          (j_of delin).Parallel.lr_parallel;
        Alcotest.(check bool) "J serial with classic" false
          (j_of classic).Parallel.lr_parallel);
    Alcotest.test_case "interchange hints on the C(J) recurrence" `Quick
      (fun () ->
        (* C(J) = C(J)+1 in an I,J,K nest carries at levels 1 and 3;
           basic AK keeps the J loop sequential because the level-3 self
           edge keeps the component cyclic at level 2 — but nothing is
           carried at level 2 itself, so it is flagged interchangeable. *)
        let prog =
          prepare
            "      REAL C(0:9)\n\
            \      DO I = 0, 4\n\
            \      DO J = 0, 9\n\
            \      DO K = 0, 3\n\
            \      C(J) = C(J) + 1\n\
            \      ENDDO\n\
            \      ENDDO\n\
            \      ENDDO\n\
            \      END\n"
        in
        let r = Codegen.run prog in
        match r.Codegen.plans with
        | [ p ] ->
            Alcotest.(check bool) "level 2 flagged interchangeable" true
              (List.mem 2 p.Codegen.interchangeable)
        | _ -> Alcotest.fail "one statement expected");
  ]

let () =
  Alcotest.run "dlz_vec"
    [
      ("scc", scc_units);
      ("graph", graph_units @ List.map QCheck_alcotest.to_alcotest graph_props);
      ("codegen", codegen_units);
      ("parallel", parallel_units);
    ]
