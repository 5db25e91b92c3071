module Pool = Dlz_base.Pool
module Trace = Dlz_base.Trace
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Analyze = Dlz_engine.Analyze
module Engine = Dlz_engine.Engine
module Stats = Dlz_engine.Stats
module Verdict = Dlz_deptest.Verdict
module Depgraph = Dlz_vec.Depgraph
module Parallel = Dlz_vec.Parallel
module Pipeline = Dlz_passes.Pipeline
module Jsonx = Dlz_obs.Jsonx

let rec walk acc root rel =
  let dir = if rel = "" then root else Filename.concat root rel in
  Array.fold_left
    (fun acc name ->
      let rel' = if rel = "" then name else rel ^ "/" ^ name in
      (* A dangling symlink (or an entry racing a delete) fails the
         stat; keep kernel-suffixed ones so the per-file open reports
         the io fault on its own ok:false line instead of the whole
         walk raising. *)
      let is_dir =
        try Sys.is_directory (Filename.concat root rel')
        with Sys_error _ -> false
      in
      if is_dir then walk acc root rel'
      else if
        Filename.check_suffix name ".f" || Filename.check_suffix name ".c"
      then rel' :: acc
      else acc)
    acc (Sys.readdir dir)

(* [readdir] order is unspecified; one sort at the end makes the file
   order (hence the report order) a function of the tree alone. *)
let kernels root = List.sort String.compare (walk [] root "")

(* One analyzed kernel.  [fr_error = Some _] marks a failed file; the
   remaining counters are zero in that case. *)
type file_report = {
  fr_file : string;
  fr_error : string option;
  fr_statements : int;
  fr_accesses : int;
  fr_pairs : int;
  fr_independent : int;
  fr_dependent : int;
  fr_inapplicable : int;
  fr_deps : int;
  fr_decided_by : (string * int) list;
  fr_loops_parallel : int;
  fr_loops_serial : int;
  fr_elapsed_ns : int64;
}

let failed file error elapsed =
  {
    fr_file = file;
    fr_error = Some error;
    fr_statements = 0;
    fr_accesses = 0;
    fr_pairs = 0;
    fr_independent = 0;
    fr_dependent = 0;
    fr_inapplicable = 0;
    fr_deps = 0;
    fr_decided_by = [];
    fr_loops_parallel = 0;
    fr_loops_serial = 0;
    fr_elapsed_ns = elapsed;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let bump counts name =
  match List.assoc_opt name counts with
  | Some n -> (name, n + 1) :: List.remove_assoc name counts
  | None -> (name, 1) :: counts

let analyze_file ~cascade ~budget ~env root rel =
  let t0 = Trace.now_ns () in
  let finish r = { r with fr_elapsed_ns = Int64.sub (Trace.now_ns ()) t0 } in
  Trace.with_span ~cat:"bulk" ~args:[ ("file", rel) ] "bulk.file" @@ fun () ->
  try
    let src = read_file (Filename.concat root rel) in
    let prog = Pipeline.load (Pipeline.lang_of_path rel) src in
    let accs, env' = Access.of_program ~env prog in
    (* Serial on purpose: the pool parallelism is across files, and a
       pool must not be entered from inside one of its own workers. *)
    let results = Engine.query_all ~cascade ?budget ~env:env' accs in
    let indep, dep, inap, decided =
      List.fold_left
        (fun (i, d, n, by) ((_ : Engine.pair), (r : Dlz_engine.Strategy.result)) ->
          let by = bump by r.decided_by in
          match r.verdict with
          | Verdict.Independent -> (i + 1, d, n, by)
          | Verdict.Dependent -> (i, d + 1, n, by)
          | Verdict.Inapplicable -> (i, d, n + 1, by))
        (0, 0, 0, []) results
    in
    (* Counts, dep rows and the loop report all read the one pass. *)
    let deps = Analyze.deps_of_results results in
    let loops = Parallel.of_graph prog (Depgraph.of_results accs results) in
    let par = List.length (List.filter (fun l -> l.Parallel.lr_parallel) loops) in
    let stmts =
      List.length
        (List.sort_uniq String.compare
           (List.map (fun (a : Access.t) -> a.Access.stmt_name) accs))
    in
    finish
      {
        fr_file = rel;
        fr_error = None;
        fr_statements = stmts;
        fr_accesses = List.length accs;
        fr_pairs = List.length results;
        fr_independent = indep;
        fr_dependent = dep;
        fr_inapplicable = inap;
        fr_deps = List.length deps;
        fr_decided_by = List.sort compare decided;
        fr_loops_parallel = par;
        fr_loops_serial = List.length loops - par;
        fr_elapsed_ns = 0L;
      }
  with
  | Sys_error m ->
      (* An unreadable file (permissions, vanished mid-walk) is a row,
         not a crash; the strerror text is host-stable, so the report
         stays byte-identical across [--jobs N]. *)
      finish (failed rel ("io: " ^ m) 0L)
  | e -> (
      match Dlz_passes.Input_error.describe e with
      | Some msg -> finish (failed rel msg 0L)
      | None -> raise e)

(* {2 NDJSON} *)

(* The pairs/verdicts/deps fields and the loops field, each counter
   read through [get]: a file line passes [fun f -> f fr], the summary
   the sum over every file. *)
let count_fields get =
  ( [
      ("pairs", Jsonx.Int (get (fun f -> f.fr_pairs)));
      ( "verdicts",
        Jsonx.ints
          [ ("independent", get (fun f -> f.fr_independent));
            ("dependent", get (fun f -> f.fr_dependent));
            ("inapplicable", get (fun f -> f.fr_inapplicable)) ] );
      ("deps", Jsonx.Int (get (fun f -> f.fr_deps)));
    ],
    ( "loops",
      Jsonx.ints
        [ ("parallel", get (fun f -> f.fr_loops_parallel));
          ("serial", get (fun f -> f.fr_loops_serial)) ] ) )

let file_line ~timings fr =
  let body =
    match fr.fr_error with
    | Some e -> [ ("ok", Jsonx.Bool false); ("error", Jsonx.Str e) ]
    | None ->
        let counts, loops = count_fields (fun f -> f fr) in
        [ ("ok", Jsonx.Bool true); ("statements", Jsonx.Int fr.fr_statements);
          ("accesses", Jsonx.Int fr.fr_accesses) ]
        @ counts @ [ ("decided_by", Jsonx.ints fr.fr_decided_by); loops ]
  in
  let timing =
    if timings then [ ("elapsed_ns", Jsonx.Int (Int64.to_int fr.fr_elapsed_ns)) ]
    else []
  in
  Jsonx.Obj ((("file", Jsonx.Str fr.fr_file) :: body) @ timing)

let summary_line ~timings ~dir ~elapsed_ns frs =
  let ok = List.length (List.filter (fun fr -> fr.fr_error = None) frs) in
  let counts, loops =
    count_fields (fun f -> List.fold_left (fun n fr -> n + f fr) 0 frs)
  in
  let timing =
    if not timings then []
    else
      let s = Stats.global in
      [ ("elapsed_ns", Jsonx.Int (Int64.to_int elapsed_ns));
        ( "cache",
          Jsonx.ints
            [ ("queries", Stats.queries s); ("hits", Stats.cache_hits s);
              ("warm_hits", Stats.warm_hits s); ("cold_hits", Stats.cold_hits s);
              ("misses", Stats.cache_misses s);
              ("snapshot_loaded", Stats.snapshot_loaded s);
              ("snapshot_loads", Stats.snapshot_loads s);
              ("snapshot_rejects", Stats.snapshot_rejects s) ] ) ]
  in
  Jsonx.Obj
    ([ ("summary", Jsonx.Bool true); ("dir", Jsonx.Str dir);
       ("files", Jsonx.Int (List.length frs)); ("ok", Jsonx.Int ok);
       ("errors", Jsonx.Int (List.length frs - ok)) ]
    @ counts @ [ loops ] @ timing)

let reports ?(cascade = Dlz_engine.Cascade.delin) ?budget ?pool ?env dir =
  let env = Option.value env ~default:Assume.empty in
  Trace.with_span ~cat:"bulk" ~args:[ ("dir", dir) ] "bulk.dir" @@ fun () ->
  let files = Array.of_list (kernels dir) in
  let worker rel = analyze_file ~cascade ~budget ~env dir rel in
  let reports =
    match pool with
    | Some p -> Pool.map p worker files
    | None -> Array.map worker files
  in
  Array.to_list reports

let run ?cascade ?budget ?pool ?env ?(timings = false) dir =
  let t0 = Trace.now_ns () in
  let reports = reports ?cascade ?budget ?pool ?env dir in
  let elapsed_ns = Int64.sub (Trace.now_ns ()) t0 in
  List.map Jsonx.to_string
    (List.map (file_line ~timings) reports
    @ [ summary_line ~timings ~dir ~elapsed_ns reports ])
