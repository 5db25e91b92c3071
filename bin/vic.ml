(* vic — a delinearization-based dependence analyzer and vectorizer.

   The command-line face of the library: parse FORTRAN-77 or C fragments,
   run the normalization pipeline, report dependences (with or without
   delinearization), vectorize, reshape linearized arrays, and regenerate
   the paper's experiments. *)

open Cmdliner
module Ast = Dlz_ir.Ast
module Assume = Dlz_symbolic.Assume
module Trace = Dlz_base.Trace
module Analyze = Dlz_engine.Analyze
module Reshape = Dlz_core.Reshape
module Codegen = Dlz_vec.Codegen
module Experiments = Dlz_driver.Experiments
module Corpus = Dlz_corpus.Corpus

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ~lang path =
  let src = read_file path in
  let lang =
    match lang with
    | Some l -> l
    | None -> if Filename.check_suffix path ".c" then `C else `F77
  in
  Trace.with_span ~cat:"frontend"
    ~args:
      [ ("file", path); ("lang", match lang with `C -> "c" | `F77 -> "f77") ]
    "parse"
  @@ fun () ->
  match lang with
  | `F77 -> Dlz_passes.Inline.expand (Dlz_frontend.F77_parser.parse_units src)
  | `C -> Dlz_passes.Pointers.lower (Dlz_frontend.C_parser.parse src)

let prepare ~lang path =
  let prog = load ~lang path in
  Trace.with_span ~cat:"passes" "normalize" @@ fun () ->
  Dlz_passes.Pipeline.prepare_program prog

let with_diagnostics f =
  try f () with
  | Dlz_frontend.Diag.Parse_error _ as e ->
      (match Dlz_frontend.Diag.describe e with
      | Some msg -> prerr_endline msg
      | None -> ());
      exit 1
  | Dlz_passes.Pointers.Unsupported msg ->
      prerr_endline ("pointer conversion: " ^ msg);
      exit 1
  | Dlz_passes.Inline.Unsupported msg ->
      prerr_endline ("inlining: " ^ msg);
      exit 1
  | Dlz_driver.Dynamic.Error err ->
      prerr_endline ("dynamic: " ^ Dlz_driver.Dynamic.describe err);
      exit 1
  | Failure msg ->
      prerr_endline ("error: " ^ msg);
      exit 1

(* --- shared options ----------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Input program (.f FORTRAN-77 subset, .c C subset).")

(* analyze also accepts --dir, so its positional is optional and the
   either-or check happens in the command body. *)
let file_opt_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Input program (.f FORTRAN-77 subset, .c C subset).\n\
               Exactly one of FILE or --dir is required.")

let dir_arg =
  Arg.(value & opt (some dir) None
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Bulk mode: analyze every .f and .c kernel under DIR\n\
                 (recursively, sorted by path) through one shared memo\n\
                 cache, and print one NDJSON line per kernel plus a\n\
                 summary line.  The default fields are deterministic:\n\
                 the report is byte-identical for any --jobs N.")

(* --cache-load, --cache-save and --cache-auto, resolved to the snapshot
   paths to use: an explicit path wins, --cache-auto fills in the
   per-user default.  [cache_explicit_load] records whether the load
   path came from --cache-load, the one case that warns when the
   snapshot is refused. *)
type cache_paths = {
  cache_load : string option;
  cache_save : string option;
  cache_explicit_load : bool;
}

let cache_term =
  let load_arg =
    Arg.(value & opt (some string) None
         & info [ "cache-load" ] ~docv:"FILE"
             ~doc:"Warm-start: bulk-load a snapshot of the memo cache\n\
                   saved by an earlier run (--cache-save).  A missing,\n\
                   corrupt, or strategy-set-mismatched snapshot is\n\
                   refused and the run starts cold (counted in --stats;\n\
                   never an error).")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "cache-save" ] ~docv:"FILE"
             ~doc:"On exit, snapshot the memo cache to FILE (atomic\n\
                   write; key-sorted, so equal caches give byte-identical\n\
                   files) for a later --cache-load.")
  in
  let auto_arg =
    Arg.(value & flag
         & info [ "cache-auto" ]
             ~doc:"Shorthand for --cache-load and --cache-save on the\n\
                   per-user default snapshot path (under\n\
                   \\$XDG_CACHE_HOME/vic or ~/.cache/vic, keyed by the\n\
                   strategy-set hash).")
  in
  let resolve load save auto =
    let pick = function
      | Some _ as p -> p
      | None -> if auto then Some (Dlz_engine.Persist.default_path ()) else None
    in
    { cache_load = pick load; cache_save = pick save;
      cache_explicit_load = load <> None }
  in
  Term.(const resolve $ load_arg $ save_arg $ auto_arg)

let stats_json_arg =
  Arg.(value & flag
       & info [ "stats-json" ]
           ~doc:"Print every registered counter, gauge and latency\n\
                 histogram as one versioned JSON snapshot line on exit\n\
                 (the shape of `vic stats --format json' and\n\
                 --metrics-dump).")

let timings_arg =
  Arg.(value & flag
       & info [ "timings" ]
           ~doc:"Bulk mode: add per-file elapsed_ns and summary cache\n\
                 warm/cold disposition to the NDJSON report.  These\n\
                 fields are scheduling-dependent, so the report is no\n\
                 longer byte-identical across --jobs values.")

let lang_arg =
  let lang_conv = Arg.enum [ ("f77", Some `F77); ("c", Some `C) ] in
  Arg.(value & opt lang_conv None & info [ "lang" ] ~docv:"LANG"
         ~doc:"Input language (default: by file extension).")

let mode_arg =
  let mode_conv =
    Arg.enum
      [
        ("delin", Analyze.Delinearize);
        ("classic", Analyze.Classic);
        ("exact", Analyze.ExactMode);
      ]
  in
  Arg.(value & opt mode_conv Analyze.Delinearize
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"Dependence tester: 'delin' (the paper), 'classic'\n\
                 (GCD+Banerjee hierarchy on the unbroken equations), or\n\
                 'exact' (integer-exact ceiling, exponential).")

let assume_arg =
  Arg.(value & opt_all (pair ~sep:'=' string int) []
       & info [ "assume" ] ~docv:"SYM=LB"
           ~doc:"Assume an integer lower bound for a symbol, e.g. N=2.\n\
                 Repeatable.")

let cascade_arg =
  Arg.(value & opt (some string) None
       & info [ "cascade" ] ~docv:"NAMES"
           ~doc:"Custom comma-separated strategy cascade (overrides\n\
                 --mode), e.g. 'gcd,banerjee,delinearize'.  Registered\n\
                 strategies: delinearize, classic, exact, gcd, banerjee,\n\
                 svpc, acyclic, residue, omega.")

let cascade_of names =
  match names with
  | None -> None
  | Some s -> (
      let names =
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      if names = [] then begin
        prerr_endline "--cascade: expected a comma-separated strategy list";
        exit 1
      end;
      match Dlz_engine.Cascade.of_names names with
      | Ok c -> Some c
      | Error msg ->
          prerr_endline ("--cascade: " ^ msg);
          exit 1)

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print every registered counter and latency histogram\n\
                 after the run, as padded text: cache dispositions,\n\
                 per-strategy attempt/decide counters (verdict\n\
                 provenance in aggregate), degradations, and per-shard\n\
                 flush counts.")

let fuel_arg =
  Arg.(value & opt (some int) None
       & info [ "fuel" ] ~docv:"N"
           ~doc:"Engine-wide step budget: the whole analysis may spend\n\
                 at most N solver steps.  Queries that hit the limit\n\
                 degrade to the conservative verdict (counted in\n\
                 --stats); the run always completes.")

let timeout_arg =
  Arg.(value & opt (some int) None
       & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Engine-wide wall-clock deadline in milliseconds\n\
                 (monotonic clock).  Queries past the deadline degrade\n\
                 to the conservative verdict; the run always completes.")

let chaos_arg =
  Arg.(value & opt (some string) None
       & info [ "chaos" ] ~docv:"SEED:RATE"
           ~doc:"Deterministic fault injection at strategy boundaries\n\
                 (testing aid), e.g. 42:0.1.  Overrides DLZ_CHAOS.")

let budget_of ~fuel ~timeout_ms =
  match (fuel, timeout_ms) with
  | None, None -> None
  | _ -> Some (Dlz_base.Budget.create ?fuel ?timeout_ms ())

let set_chaos spec =
  match spec with
  | None -> ()
  | Some s -> (
      match Dlz_engine.Chaos.of_string s with
      | Ok c -> Dlz_engine.Chaos.set_current (Some c)
      | Error msg ->
          prerr_endline ("--chaos: " ^ msg);
          exit 1)

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a structured execution trace (spans for every\n\
                 query, strategy attempt, parse/normalize phase and\n\
                 pool chunk, one track per domain) and write it to\n\
                 FILE in the Chrome trace_event JSON format — open it\n\
                 in chrome://tracing or https://ui.perfetto.dev.")

let trace_sample_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-sample" ] ~docv:"[SEED:]RATE"
           ~doc:"Keep each query span with probability RATE\n\
                 (deterministic in SEED; default 1 = keep all).\n\
                 Overrides DLZ_TRACE_SAMPLE.  Only span recording is\n\
                 sampled; histograms always see every query.")

let sort_arg =
  let module Text = Dlz_obs.Text in
  let sort_conv =
    Arg.enum
      [ ("name", Text.By_name); ("attempts", Text.By_attempts);
        ("time", Text.By_time) ]
  in
  Arg.(value & opt sort_conv Text.By_name
       & info [ "sort" ] ~docv:"KEY"
           ~doc:"Row order of the --stats readout: 'name' (default,\n\
                 registry order), 'attempts' (within each counter\n\
                 family, larger values first), or 'time' (within each\n\
                 histogram family, larger total latency first).")

let set_trace_sample spec =
  match spec with
  | None -> ()
  | Some s -> (
      match Trace.sampling_of_string s with
      | Ok (seed, rate) -> Trace.set_sampling ~seed rate
      | Error msg ->
          prerr_endline ("--trace-sample: " ^ msg);
          exit 1)

let trace_mask_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-mask" ] ~docv:"CATS"
           ~doc:"Record only spans/instants of these comma-separated\n\
                 categories under Full recording (e.g.\n\
                 'engine,strategy'), so Full costs only what you\n\
                 actually record.  The empty category (request and\n\
                 phase spans) is always enabled.  Overrides\n\
                 DLZ_TRACE_MASK.")

let set_trace_mask spec =
  match spec with
  | None -> ()
  | Some s ->
      let cats =
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      Trace.set_mask (Some cats)

(* --stats wants latency percentiles even without span recording, so
   it turns on Timing; --trace needs the full event stream. *)
let setup_telemetry ?trace_mask ~stats ~trace_out ~trace_sample () =
  set_trace_sample trace_sample;
  set_trace_mask trace_mask;
  match trace_out with
  | Some _ -> Trace.set_level Trace.Full
  | None -> if stats then Trace.set_level Trace.Timing

(* The --stats readout: every registered sample, rendered by the same
   collectors a Prometheus scrape reads. *)
let print_stats ~sort =
  print_newline ();
  print_string (Dlz_obs.Text.to_string ~sort (Dlz_obs.Registry.collect ()))

let write_trace trace_out =
  match trace_out with
  | None -> ()
  | Some path ->
      let events = List.length (Trace.events ()) in
      Trace.export_chrome path;
      Printf.printf "trace: wrote %s (%d events, %d dropped)\n" path events
        (Trace.dropped ())

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Answer dependence queries on N domains in parallel\n\
                 (default 1 = serial; 0 = the recommended domain count\n\
                 for this machine).  Output is identical for any N.")

let check_jobs jobs =
  if jobs < 0 then begin
    prerr_endline "--jobs: expected a non-negative domain count";
    exit 1
  end;
  jobs

let chunk_arg =
  Arg.(value & opt (some int) None
       & info [ "chunk" ] ~docv:"K"
           ~doc:"Queries per work-stealing deal (default: auto-tuned\n\
                 from observed per-query cost and queue-wait telemetry).\n\
                 Output is identical for any K.")

let check_chunk = function
  | Some k when k <= 0 ->
      prerr_endline "--chunk: expected a positive candidate count";
      exit 1
  | c -> c

let env_of assumes =
  List.fold_left (fun env (s, b) -> Assume.assume_ge s b env) Assume.empty
    assumes

(* --- commands ------------------------------------------------------------ *)

let ranges_arg =
  Arg.(value & flag
       & info [ "ranges" ]
           ~doc:"Also print Wolf-Lam range vectors (exact per-level\n\
                 delta ranges) for each dependence [WL91].")

let analyze_one ~lang ~mode ~cascade ~budget ~pool ~chunk ~env ~ranges file =
  let prog = prepare ~lang file in
  print_endline (Ast.to_string prog);
  print_newline ();
  let deps =
    Analyze.deps_of_program ~mode ?cascade ?budget ?pool ?chunk ~env prog
  in
  if deps = [] then print_endline "No dependences: fully parallel."
  else
    List.iter
      (fun (d : Analyze.dep) ->
        Format.printf "%a@." Analyze.pp_dep d;
        if ranges then begin
          let module Problem = Dlz_deptest.Problem in
          let module Rangevec = Dlz_deptest.Rangevec in
          match Problem.of_accesses d.Analyze.src d.Analyze.dst with
          | Some p -> (
              match Problem.to_numeric p with
              | Some np -> (
                  match
                    Rangevec.of_exact ~common_ubs:np.Problem.common_ubs
                      np.Problem.eqs
                  with
                  | Some r ->
                      Printf.printf "    delta ranges: %s\n"
                        (Rangevec.to_string r)
                  | None -> ())
              | None -> ())
          | None -> ()
        end)
      deps;
  print_newline ();
  print_endline "Per-loop parallelism:";
  List.iter
    (fun (l : Dlz_vec.Parallel.loop_report) ->
      Printf.printf "  %s%s (level %d): %s%s\n"
        (String.concat "" (List.map (fun v -> v ^ "/")
                             l.Dlz_vec.Parallel.lr_path))
        l.Dlz_vec.Parallel.lr_var l.Dlz_vec.Parallel.lr_level
        (if l.Dlz_vec.Parallel.lr_parallel then "PARALLEL"
         else "serial")
        (if l.Dlz_vec.Parallel.lr_parallel then ""
         else
           Printf.sprintf " (%d carried dependence(s))"
             l.Dlz_vec.Parallel.lr_carried))
    (Dlz_vec.Parallel.report ~mode ?cascade ?budget ?pool ?chunk ~env prog)

let analyze_cmd =
  let run file dir lang mode assumes ranges cascade stats stats_json jobs
      chunk fuel timeout_ms chaos cache timings trace_out trace_sample
      trace_mask sort =
    with_diagnostics (fun () ->
        let jobs = check_jobs jobs in
        let chunk = check_chunk chunk in
        let cascade = cascade_of cascade in
        set_chaos chaos;
        setup_telemetry ?trace_mask ~stats:(stats || stats_json) ~trace_out
          ~trace_sample ();
        let budget = budget_of ~fuel ~timeout_ms in
        let module Persist = Dlz_engine.Persist in
        Dlz_engine.Engine.reset_metrics ();
        Dlz_base.Pool.with_jobs ~jobs (fun pool ->
            (match cache.cache_load with
            | None -> ()
            | Some p -> (
                match Persist.load ?pool p with
                | Ok _ -> ()
                | Error reason ->
                    (* An explicit --cache-load that fails deserves a
                       word; the quiet path is --cache-auto before any
                       snapshot exists.  Either way the run proceeds
                       cold (the refusal is counted in --stats). *)
                    if cache.cache_explicit_load then
                      Printf.eprintf
                        "warning: snapshot %s: %s; starting cold\n%!" p
                        reason));
            let env = env_of assumes in
            (match (dir, file) with
            | Some d, None ->
                List.iter print_endline
                  (Dlz_driver.Bulk.run ~mode ?cascade ?budget ?pool ~env
                     ~timings d)
            | None, Some file ->
                analyze_one ~lang ~mode ~cascade ~budget ~pool ~chunk ~env
                  ~ranges file
            | Some _, Some _ ->
                prerr_endline "analyze: FILE and --dir are mutually exclusive";
                exit 1
            | None, None ->
                prerr_endline "analyze: expected FILE or --dir";
                exit 1);
            match cache.cache_save with
            | None -> ()
            | Some p -> (
                match Persist.save p with
                | Ok _ -> ()
                | Error reason ->
                    Printf.eprintf "warning: snapshot save %s: %s\n%!" p
                      reason));
        if stats then begin
          print_stats ~sort;
          let module Query = Dlz_engine.Query in
          let cache = Query.global_cache in
          let ints a =
            String.concat " "
              (List.map string_of_int (Array.to_list a))
          in
          let flushes = Query.shard_flushes cache in
          Printf.printf
            "cache shards: %d x %d entries; sizes [%s]; flushes per shard \
             [%s] (total %d)\n"
            (Query.shards cache) (Query.shard_capacity cache)
            (ints (Query.shard_sizes cache))
            (ints flushes)
            (Array.fold_left ( + ) 0 flushes);
          (match Dlz_engine.Chaos.current () with
          | Some c ->
              Printf.printf "chaos: seed %Ld rate %g, %d faults injected\n"
                (Dlz_engine.Chaos.seed c) (Dlz_engine.Chaos.rate c)
                (Dlz_engine.Chaos.strikes c)
          | None -> ())
        end;
        if stats_json then
          print_endline
            (Dlz_obs.Jsonx.to_string
               (Dlz_obs.Snap.to_json (Dlz_obs.Registry.collect ())));
        write_trace trace_out)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Normalize a program and report its dependences.")
    Term.(const run $ file_opt_arg $ dir_arg $ lang_arg $ mode_arg
          $ assume_arg $ ranges_arg $ cascade_arg $ stats_arg $ stats_json_arg
          $ jobs_arg $ chunk_arg $ fuel_arg $ timeout_arg $ chaos_arg
          $ cache_term $ timings_arg
          $ trace_out_arg $ trace_sample_arg $ trace_mask_arg $ sort_arg)

let vectorize_cmd =
  let run file lang mode assumes =
    with_diagnostics (fun () ->
        let prog = prepare ~lang file in
        let r = Codegen.run ~mode ~env:(env_of assumes) prog in
        print_string r.Codegen.text;
        print_newline ();
        List.iter
          (fun (pl : Codegen.plan) ->
            Printf.printf "%s: sequential levels [%s], vector levels [%s]%s\n"
              pl.Codegen.stmt_name
              (String.concat "," (List.map string_of_int pl.Codegen.seq_levels))
              (String.concat "," (List.map string_of_int pl.Codegen.vec_levels))
              (match pl.Codegen.interchangeable with
              | [] -> ""
              | ls ->
                  Printf.sprintf ", interchange candidates [%s]"
                    (String.concat "," (List.map string_of_int ls))))
          r.Codegen.plans)
  in
  Cmd.v
    (Cmd.info "vectorize"
       ~doc:"Run the Allen-Kennedy vectorizer over the program.")
    Term.(const run $ file_arg $ lang_arg $ mode_arg $ assume_arg)

let delinearize_cmd =
  let run file lang assumes =
    with_diagnostics (fun () ->
        let prog = prepare ~lang file in
        let prog', plans = Reshape.apply ~env:(env_of assumes) prog in
        if plans = [] then
          print_endline "No array could be reshaped (see --assume)."
        else
          List.iter
            (fun (pl : Reshape.plan) ->
              Printf.printf "reshaped %s: %d dimensions\n" pl.Reshape.array
                (List.length pl.Reshape.extents))
            plans;
        print_endline (Ast.to_string prog'))
  in
  Cmd.v
    (Cmd.info "delinearize"
       ~doc:"Recover multidimensional shapes of linearized arrays.")
    Term.(const run $ file_arg $ lang_arg $ assume_arg)

let trace_cmd =
  let run file lang assumes =
    with_diagnostics (fun () ->
        let prog = prepare ~lang file in
        let env = env_of assumes in
        let accs, env = Dlz_ir.Access.of_program ~env prog in
        let module Access = Dlz_ir.Access in
        let module Problem = Dlz_deptest.Problem in
        let module Symeq = Dlz_deptest.Symeq in
        let module Algo = Dlz_core.Algo in
        let module Symalgo = Dlz_core.Symalgo in
        let shown = ref 0 in
        Seq.iter
          (fun (pr : Dlz_engine.Engine.pair) ->
            let a = pr.Dlz_engine.Engine.src
            and b = pr.Dlz_engine.Engine.dst in
            let p = pr.Dlz_engine.Engine.problem in
            List.iter
              (fun eq ->
                      incr shown;
                      Printf.printf "=== %s:%s -> %s:%s (dimension %d)\n"
                        a.Access.stmt_name a.Access.array b.Access.stmt_name
                        b.Access.array !shown;
                      match Symeq.to_numeric eq with
                      | Some neq ->
                          Format.printf "equation: %a@."
                            Dlz_deptest.Depeq.pp neq;
                          let ubs =
                            match Problem.to_numeric p with
                            | Some np -> np.Problem.common_ubs
                            | None -> Array.make p.Problem.n_common max_int
                          in
                          let r =
                            Algo.run ~n_common:p.Problem.n_common
                              ~common_ubs:ubs neq
                          in
                          List.iter
                            (fun (st : Algo.step) ->
                              Printf.printf
                                "  k=%d c=%s smin=%d smax=%d g=%s r=%d%s%s\n"
                                st.Algo.k
                                (match st.Algo.coeff with
                                | Some c -> string_of_int c
                                | None -> "-")
                                st.Algo.smin st.Algo.smax
                                (match st.Algo.gk with
                                | Some g -> string_of_int g
                                | None -> "inf")
                                st.Algo.r
                                (if st.Algo.barrier then "  <- barrier" else "")
                                (match st.Algo.separated with
                                | Some piece ->
                                    "  separates: "
                                    ^ Dlz_deptest.Depeq.to_string piece
                                | None -> ""))
                            r.Algo.steps;
                          Printf.printf "  verdict: %s\n"
                            (Dlz_deptest.Verdict.to_string r.Algo.verdict)
                      | None ->
                          Format.printf "equation (symbolic): %a@." Symeq.pp eq;
                          let r =
                            Symalgo.run ~env ~n_common:p.Problem.n_common eq
                          in
                          List.iter
                            (fun (st : Symalgo.step) ->
                              Format.printf
                                "  k=%d c=%s smin=%s smax=%s g=%s r=%s%s%s@."
                                st.Symalgo.k
                                (match st.Symalgo.coeff with
                                | Some c -> Dlz_symbolic.Poly.to_string c
                                | None -> "-")
                                (Dlz_symbolic.Poly.to_string st.Symalgo.smin)
                                (Dlz_symbolic.Poly.to_string st.Symalgo.smax)
                                (match st.Symalgo.gk with
                                | Some g -> Dlz_symbolic.Poly.to_string g
                                | None -> "inf")
                                (Dlz_symbolic.Poly.to_string st.Symalgo.r)
                                (if st.Symalgo.barrier then "  <- barrier"
                                 else "")
                                (match st.Symalgo.separated with
                                | Some piece ->
                                    "  separates: "
                                    ^ Format.asprintf "%a" Symeq.pp piece
                                | None -> ""))
                            r.Symalgo.steps;
                          Printf.printf "  verdict: %s\n"
                            (Dlz_deptest.Verdict.to_string r.Symalgo.verdict))
              p.Problem.equations)
          (Dlz_engine.Engine.pairs_seq accs);
        if !shown = 0 then print_endline "No testable reference pairs.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the Figure-5-style delinearization trace for every\n\
             dependence equation of the program.")
    Term.(const run $ file_arg $ lang_arg $ assume_arg)

let graph_cmd =
  let dot_arg =
    Arg.(value & flag
         & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of plain text.")
  in
  let run file lang mode assumes dot jobs chunk =
    with_diagnostics (fun () ->
        let jobs = check_jobs jobs in
        let chunk = check_chunk chunk in
        (* Same scoping discipline as analyze: metrics cover exactly
           this invocation's work. *)
        Dlz_engine.Engine.reset_metrics ();
        let prog = prepare ~lang file in
        let g =
          Dlz_vec.Depgraph.build ~mode ~jobs ?chunk ~env:(env_of assumes)
            prog
        in
        if not dot then Format.printf "%a@." Dlz_vec.Depgraph.pp g
        else begin
          print_endline "digraph deps {";
          Array.iteri
            (fun i name -> Printf.printf "  n%d [label=\"%s\"];\n" i name)
            g.Dlz_vec.Depgraph.stmt_names;
          List.iter
            (fun (e : Dlz_vec.Depgraph.edge) ->
              Printf.printf
                "  n%d -> n%d [label=\"%s %s%s\"];\n"
                e.Dlz_vec.Depgraph.e_src e.Dlz_vec.Depgraph.e_dst
                (Dlz_deptest.Dirvec.to_string e.Dlz_vec.Depgraph.e_vec)
                (Dlz_deptest.Classify.to_string e.Dlz_vec.Depgraph.e_kind)
                (if e.Dlz_vec.Depgraph.e_level = max_int then ""
                 else
                   Printf.sprintf " @%d" e.Dlz_vec.Depgraph.e_level))
            g.Dlz_vec.Depgraph.edges;
          print_endline "}"
        end)
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Print the statement dependence graph (optionally as DOT).")
    Term.(const run $ file_arg $ lang_arg $ mode_arg $ assume_arg $ dot_arg
          $ jobs_arg $ chunk_arg)

let experiments_cmd =
  let id_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id (e1..e8); all when omitted.")
  in
  let run id jobs chunk =
    with_diagnostics (fun () ->
        let jobs = check_jobs jobs in
        let chunk = check_chunk chunk in
        (* Same scoping discipline as analyze: metrics cover exactly
           this invocation's work. *)
        Dlz_engine.Engine.reset_metrics ();
        match id with
        | None ->
            List.iter
              (fun (_, report) ->
                print_endline report;
                print_newline ())
              (Experiments.all ~jobs ?chunk ())
        | Some id -> (
            match Experiments.run ~jobs ?chunk id with
            | Some report -> print_endline report
            | None ->
                prerr_endline ("unknown experiment: " ^ id);
                exit 1))
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures (E1-E8).")
    Term.(const run $ id_arg $ jobs_arg $ chunk_arg)

let corpus_cmd =
  let dump_arg =
    Arg.(value & opt (some string) None
         & info [ "dump" ] ~docv:"DIR"
             ~doc:"Also write the generated programs as .f files into DIR.")
  in
  let polybench_arg =
    Arg.(value & opt (some string) None
         & info [ "polybench" ] ~docv:"DIR"
             ~doc:"Also write the polybench-style mini-C kernels as .c\n\
                   files into DIR (the generator behind\n\
                   corpus/polybench/).")
  in
  let run dump polybench =
    with_diagnostics (fun () ->
        (match polybench with
        | Some dir ->
            Dlz_corpus.Polybench.write_dir dir;
            List.iter
              (fun (k : Dlz_corpus.Polybench.kernel) ->
                Printf.printf "wrote %s\n"
                  (Filename.concat dir (k.k_name ^ ".c")))
              Dlz_corpus.Polybench.kernels
        | None -> ());
        (match dump with
        | Some dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            List.iter
              (fun spec ->
                let prog = Corpus.generate spec in
                let path =
                  Filename.concat dir
                    (String.lowercase_ascii spec.Corpus.name ^ ".f")
                in
                let oc = open_out path in
                output_string oc (Ast.to_string prog);
                output_char oc '\n';
                close_out oc;
                Printf.printf "wrote %s\n" path)
              Corpus.riceps
        | None -> ());
        print_endline (Experiments.e2 ()))
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"Generate and measure the synthetic corpus.")
    Term.(const run $ dump_arg $ polybench_arg)

let fuzz_cmd =
  let module Eqgen = Dlz_oracle.Eqgen in
  let module Differ = Dlz_oracle.Differ in
  let seed_arg =
    Arg.(value & opt int64 1L
         & info [ "seed" ] ~docv:"S"
             ~doc:"Generator seed; the run is fully deterministic in it.")
  in
  let count_arg =
    Arg.(value & opt int 500
         & info [ "count" ] ~docv:"N"
             ~doc:"Number of generated cases (mixed families: random,\n\
                   linearized, symbolic-coefficient, near-overflow, whole\n\
                   programs).")
  in
  let shrink_arg =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:"Minimize every UNSOUND/INTERNAL divergence to a\n\
                   canonical counterexample before reporting.")
  in
  let corpus_flag =
    Arg.(value & flag
         & info [ "corpus" ]
             ~doc:"Also cross-check every testable reference pair of the\n\
                   synthetic RiCEPS corpus.")
  in
  let polybench_flag =
    Arg.(value & flag
         & info [ "polybench" ]
             ~doc:"Also cross-check every testable reference pair of the\n\
                   polybench-style mini-C corpus.")
  in
  let limit_arg =
    Arg.(value & opt int Dlz_oracle.Differ.default_limit
         & info [ "limit" ] ~docv:"POINTS"
             ~doc:"Oracle box-size cap: systems with more integer points\n\
                   are reported as unknown rather than enumerated.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Also write the divergences' replayable s-expressions\n\
                   to FILE (one per divergence).")
  in
  let replay_arg =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Instead of generating, read one counterexample\n\
                   s-expression from FILE and cross-check just that\n\
                   system.")
  in
  let run seed count shrink corpus polybench limit out replay stats jobs fuel
      chaos trace_out trace_sample sort =
    with_diagnostics (fun () ->
        let jobs = check_jobs jobs in
        set_chaos chaos;
        setup_telemetry ~stats ~trace_out ~trace_sample ();
        Dlz_engine.Engine.reset_metrics ();
        let cases =
          match replay with
          | Some path -> (
              match Dlz_oracle.Sexp.problem_of_string (read_file path) with
              | Ok np ->
                  [ { Eqgen.id = "replay:0"; family = "replay";
                      problem = Dlz_deptest.Problem.synthetic np;
                      ground = np; env = Assume.empty } ]
              | Error msg ->
                  prerr_endline ("--replay: " ^ msg);
                  exit 1)
          | None ->
              Eqgen.all ~seed ~count
              @ (if corpus then Eqgen.corpus () else [])
              @ (if polybench then Eqgen.polybench () else [])
        in
        let report =
          Differ.run ~stats:Dlz_engine.Stats.global ~jobs ?fuel ~limit ~shrink
            cases
        in
        print_string (Differ.report_to_string report);
        (match out with
        | Some path ->
            let oc = open_out path in
            List.iter
              (fun (d : Differ.divergence) ->
                output_string oc
                  (Printf.sprintf "; %s %s %s\n%s\n"
                     (Differ.cls_to_string d.Differ.d_class)
                     d.Differ.d_strategy d.Differ.d_case d.Differ.d_replay))
              report.Differ.r_divergences;
            close_out oc;
            Printf.printf "wrote %s\n" path
        | None -> ());
        if stats then print_stats ~sort;
        write_trace trace_out;
        let bad =
          Differ.count_class report Differ.Unsound
          + Differ.count_class report Differ.Internal
        in
        if bad > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential soundness fuzzing: cross-check every registered\n\
             strategy against a brute-force oracle (and against each\n\
             other) over generated dependence equations.")
    Term.(const run $ seed_arg $ count_arg $ shrink_arg $ corpus_flag
          $ polybench_flag $ limit_arg $ out_arg $ replay_arg $ stats_arg
          $ jobs_arg $ fuel_arg $ chaos_arg $ trace_out_arg $ trace_sample_arg
          $ sort_arg)

(* The per-user default socket path, shared by [serve] (listen side)
   and [stats] (scrape side) so `vic serve` + `vic stats` pair up with
   no flags at all. *)
let default_socket () =
  let dir =
    match Sys.getenv_opt "XDG_RUNTIME_DIR" with
    | Some d when d <> "" -> d
    | _ -> Filename.get_temp_dir_name ()
  in
  Filename.concat dir (Printf.sprintf "vic-serve-%d.sock" (Unix.getuid ()))

let resolve_addr ~flag = function
  | None -> Dlz_serve.Addr.Unix_sock (default_socket ())
  | Some s -> (
      match Dlz_serve.Addr.of_string s with
      | Ok a -> a
      | Error m ->
          prerr_endline (flag ^ ": " ^ m);
          exit 1)

let serve_cmd =
  let addr_arg =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Address to listen on: 'unix:PATH', a bare socket\n\
                   path, 'tcp:HOST:PORT', or 'HOST:PORT'.  Port 0\n\
                   requests an ephemeral TCP port (printed at startup).\n\
                   Default: a per-user unix socket under\n\
                   \\$XDG_RUNTIME_DIR or /tmp.")
  in
  let workers_arg =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
             ~doc:"Session worker domains: concurrent connections\n\
                   served (the rest wait in the admission queue).")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue capacity.  A connection arriving to\n\
                   a full queue is refused immediately with\n\
                   ok:false reason:overloaded and a retry_after_ms\n\
                   hint — nothing queues unboundedly.")
  in
  let request_fuel_arg =
    Arg.(value & opt (some int) None
         & info [ "request-fuel" ] ~docv:"N"
             ~doc:"Per-request solver-step ceiling.  A client may ask\n\
                   for less (the 'fuel' request field); the effective\n\
                   budget is the smaller of the two, carved from the\n\
                   server-wide budget.")
  in
  let request_timeout_arg =
    Arg.(value & opt (some int) (Some 2_000)
         & info [ "request-timeout-ms" ] ~docv:"MS"
             ~doc:"Per-request wall-clock deadline (default 2000).\n\
                   Requests past it degrade to the conservative verdict\n\
                   and are answered, not killed.")
  in
  let idle_timeout_arg =
    Arg.(value & opt int 10_000
         & info [ "idle-timeout-ms" ] ~docv:"MS"
             ~doc:"Per-read socket timeout: bounds slow-loris clients\n\
                   and the worst-case drain latency.")
  in
  let max_frame_arg =
    Arg.(value & opt int Dlz_serve.Frame.default_max_bytes
         & info [ "max-frame" ] ~docv:"BYTES"
             ~doc:"Largest accepted request frame; beyond it the\n\
                   request is refused and the connection closed.")
  in
  let retry_after_arg =
    Arg.(value & opt int 50
         & info [ "retry-after-ms" ] ~docv:"MS"
             ~doc:"Hint attached to 'overloaded' refusals.")
  in
  let quiet_arg =
    Arg.(value & flag
         & info [ "quiet" ] ~doc:"Suppress the startup and drain chatter.")
  in
  let metrics_dump_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-dump" ] ~docv:"PATH"
             ~doc:"Append one NDJSON line per interval to PATH — the\n\
                   full versioned metrics snapshot (daemon counters,\n\
                   engine counters, per-client attribution) — plus a\n\
                   final line after the drain.  A flight recorder for\n\
                   the metric plane; restarts extend the series.")
  in
  let metrics_dump_interval_arg =
    Arg.(value & opt int 1_000
         & info [ "metrics-dump-interval-ms" ] ~docv:"MS"
             ~doc:"Interval between --metrics-dump lines (default\n\
                   1000, clamped to at least 50).")
  in
  let run addr workers queue request_fuel request_timeout_ms idle_timeout_ms
      max_frame retry_after_ms fuel timeout_ms cascade chaos cache stats_json
      quiet metrics_dump metrics_dump_interval_ms trace_mask =
    set_chaos chaos;
    set_trace_mask trace_mask;
    let cascade = cascade_of cascade in
    let address = resolve_addr ~flag:"--listen" addr in
    let cfg =
      {
        Dlz_serve.Server.address;
        workers = max 1 workers;
        queue_capacity = max 1 queue;
        max_frame = max 1024 max_frame;
        idle_timeout_ms = max 100 idle_timeout_ms;
        retry_after_ms = max 0 retry_after_ms;
        request_fuel;
        request_timeout_ms;
        global_fuel = fuel;
        global_timeout_ms = timeout_ms;
        cascade;
        snapshot_load = cache.cache_load;
        snapshot_save = cache.cache_save;
        metrics_dump;
        metrics_dump_interval_ms = max 50 metrics_dump_interval_ms;
      }
    in
    Dlz_driver.Serve.run_cli ~stats_json ~quiet cfg
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent dependence-query daemon: a framed\n\
             NDJSON protocol over a unix or TCP socket, bounded\n\
             admission with explicit overload shedding, per-request\n\
             deadlines, per-connection fault isolation, and graceful\n\
             SIGTERM drain with a warm-cache snapshot.")
    Term.(const run $ addr_arg $ workers_arg $ queue_arg $ request_fuel_arg
          $ request_timeout_arg $ idle_timeout_arg $ max_frame_arg
          $ retry_after_arg $ fuel_arg $ timeout_arg $ cascade_arg $ chaos_arg
          $ cache_term $ stats_json_arg
          $ quiet_arg $ metrics_dump_arg $ metrics_dump_interval_arg
          $ trace_mask_arg)

let stats_cmd =
  let connect_arg =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Daemon address: 'unix:PATH', a bare socket path,\n\
                   'tcp:HOST:PORT', or 'HOST:PORT'.  Default: the\n\
                   per-user unix socket `vic serve` listens on.")
  in
  let format_arg =
    let fmt_conv = Arg.enum [ ("prom", `Prom); ("json", `Json) ] in
    Arg.(value & opt fmt_conv `Prom
         & info [ "format" ] ~docv:"FMT"
             ~doc:"'prom' (Prometheus exposition text, default) or\n\
                   'json' (the versioned one-line snapshot — the\n\
                   --metrics-dump shape).")
  in
  let watch_arg =
    Arg.(value & flag
         & info [ "watch" ]
             ~doc:"Poll the daemon every --interval-ms until\n\
                   interrupted (or for --count scrapes), printing each\n\
                   snapshot — a live top for the metric plane.")
  in
  let interval_arg =
    Arg.(value & opt int 2_000
         & info [ "interval-ms" ] ~docv:"MS"
             ~doc:"--watch polling interval (default 2000, clamped to\n\
                   at least 100).")
  in
  let count_arg =
    Arg.(value & opt int 0
         & info [ "count" ] ~docv:"N"
             ~doc:"--watch: stop after N scrapes (0 = until\n\
                   interrupted).  Useful for scripted sampling.")
  in
  let run connect format watch interval_ms count =
    let addr = resolve_addr ~flag:"--connect" connect in
    Dlz_driver.Serve.run_stats ~addr ~format ~watch ~interval_ms ~count ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Scrape a running `vic serve` daemon's metrics (the\n\
             'metrics' protocol verb): Prometheus exposition text or\n\
             the versioned JSON snapshot, one-shot or as a --watch\n\
             live poller.")
    Term.(const run $ connect_arg $ format_arg $ watch_arg $ interval_arg
          $ count_arg)

let main_cmd =
  let doc = "delinearization-based dependence analysis (Maslov, PLDI 1992)" in
  Cmd.group (Cmd.info "vic" ~version:"1.0.0" ~doc)
    [
      analyze_cmd; vectorize_cmd; delinearize_cmd; trace_cmd; graph_cmd;
      experiments_cmd; corpus_cmd; fuzz_cmd; serve_cmd; stats_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
