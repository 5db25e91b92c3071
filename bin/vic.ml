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
module Depgraph = Dlz_vec.Depgraph
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

(* --- converters --------------------------------------------------------- *)

(* Flag values are checked while cmdliner parses them: a rejected value
   is a usage error (exit 124) naming the flag, and the command bodies
   only ever see typed, valid values. *)

let conv_of ~parse ~to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (parse s)),
      Fmt.of_to_string to_string )

let int_where ok ~expected =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when ok n -> Ok n
    | Ok _ -> Error (`Msg ("expected " ^ expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative what =
  int_where (fun n -> n >= 0) ~expected:("a non-negative " ^ what)

let positive what = int_where (fun n -> n > 0) ~expected:("a positive " ^ what)

let comma_list s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(* --- shared options ----------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Input program (.f FORTRAN-77 subset, .c C subset).")

(* analyze also accepts --dir: exactly one of the two names its input. *)
let file_or_dir_arg =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Input program (.f FORTRAN-77 subset, .c C subset).\n\
                 Exactly one of FILE or --dir is required.")
  in
  let dir =
    Arg.(value & opt (some dir) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Bulk mode: analyze every .f and .c kernel under DIR\n\
                   (recursively, sorted by path) through one shared memo\n\
                   cache, and print one NDJSON line per kernel plus a\n\
                   summary line.  The default fields are deterministic:\n\
                   the report is byte-identical for any --jobs N.")
  in
  let pick file dir =
    match (file, dir) with
    | Some f, None -> `Ok (`File f)
    | None, Some d -> `Ok (`Dir d)
    | Some _, Some _ -> `Error (true, "FILE and --dir are mutually exclusive")
    | None, None -> `Error (true, "expected FILE or --dir")
  in
  Term.(ret (const pick $ file $ dir))

(* The input a command analyzes, with the --lang and --assume that shape
   its parse and analysis. *)
type 'a input = { target : 'a; lang : [ `F77 | `C ] option; env : Assume.t }

let input_term target =
  let lang_arg =
    let lang_conv = Arg.enum [ ("f77", `F77); ("c", `C) ] in
    Arg.(value & opt (some lang_conv) None & info [ "lang" ] ~docv:"LANG"
           ~doc:"Input language (default: by file extension).")
  in
  let assume_arg =
    Arg.(value & opt_all (pair ~sep:'=' string int) []
         & info [ "assume" ] ~docv:"SYM=LB"
             ~doc:"Assume an integer lower bound for a symbol, e.g. N=2.\n\
                   Repeatable.")
  in
  let make target lang assumes =
    let env =
      List.fold_left (fun env (s, b) -> Assume.assume_ge s b env) Assume.empty
        assumes
    in
    { target; lang; env }
  in
  Term.(const make $ target $ lang_arg $ assume_arg)

let prepare input =
  let prog = load ~lang:input.lang input.target in
  Trace.with_span ~cat:"passes" "normalize" @@ fun () ->
  Dlz_passes.Pipeline.prepare_program prog

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

(* cmdliner prints the default by looking it up in the enum; the preset
   names differ, so that comparison never reaches a strategy closure. *)
let mode_arg =
  Arg.(value & opt (enum Dlz_engine.Cascade.presets) Dlz_engine.Cascade.delin
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"Dependence tester: 'delin' (the paper), 'classic'\n\
                 (GCD+Banerjee hierarchy on the unbroken equations), or\n\
                 'exact' (integer-exact ceiling, exponential).")

let cascade_arg =
  let cascade_conv =
    let parse s =
      match comma_list s with
      | [] -> Error "expected a comma-separated strategy list"
      | names -> Dlz_engine.Cascade.of_names names
    in
    conv_of ~parse ~to_string:(fun c -> c.Dlz_engine.Cascade.name)
  in
  Arg.(value & opt (some cascade_conv) None
       & info [ "cascade" ] ~docv:"NAMES"
           ~doc:"Custom comma-separated strategy cascade (overrides\n\
                 --mode), e.g. 'gcd,banerjee,delinearize'.  Registered\n\
                 strategies: delinearize, classic, exact, gcd, banerjee,\n\
                 svpc, acyclic, residue, omega.")

(* The dependence tester: the --mode preset unless --cascade names one. *)
let tester_term =
  Term.(const (fun mode cascade -> Option.value cascade ~default:mode)
        $ mode_arg $ cascade_arg)

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print every registered counter and latency histogram\n\
                 after the run, as padded text: cache dispositions,\n\
                 per-strategy attempt/decide counters (verdict\n\
                 provenance in aggregate), degradations, and per-shard\n\
                 flush counts.")

let fuel_arg =
  Arg.(value & opt (some (non_negative "step count")) None
       & info [ "fuel" ] ~docv:"N"
           ~doc:"Engine-wide step budget: the whole analysis may spend\n\
                 at most N solver steps.  Queries that hit the limit\n\
                 degrade to the conservative verdict (counted in\n\
                 --stats); the run always completes.")

let timeout_arg =
  Arg.(value & opt (some (non_negative "millisecond count")) None
       & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Engine-wide wall-clock deadline in milliseconds\n\
                 (monotonic clock).  Queries past the deadline degrade\n\
                 to the conservative verdict; the run always completes.")

(* --fuel and --timeout-ms as one engine-wide budget; none when both
   are absent. *)
let budget_term =
  let make fuel timeout_ms =
    match (fuel, timeout_ms) with
    | None, None -> None
    | _ -> Some (Dlz_base.Budget.create ?fuel ?timeout_ms ())
  in
  Term.(const make $ fuel_arg $ timeout_arg)

let chaos_arg =
  let chaos_conv =
    conv_of ~parse:Dlz_engine.Chaos.of_string
      ~to_string:Dlz_engine.Chaos.to_string
  in
  Arg.(value & opt (some chaos_conv) None
       & info [ "chaos" ] ~docv:"SEED:RATE"
           ~doc:"Deterministic fault injection at strategy boundaries\n\
                 (testing aid), e.g. 42:0.1.  Overrides DLZ_CHAOS.")

let set_chaos = Option.iter (fun c -> Dlz_engine.Chaos.set_current (Some c))

let trace_mask_arg =
  let cats_conv =
    conv_of ~parse:(fun s -> Ok (comma_list s)) ~to_string:(String.concat ",")
  in
  Arg.(value & opt (some cats_conv) None
       & info [ "trace-mask" ] ~docv:"CATS"
           ~doc:"Record only spans/instants of these comma-separated\n\
                 categories under Full recording (e.g.\n\
                 'engine,strategy'), so Full costs only what you\n\
                 actually record.  The empty category (request and\n\
                 phase spans) is always enabled.  Overrides\n\
                 DLZ_TRACE_MASK.")

let set_trace_mask = Option.iter (fun cats -> Trace.set_mask (Some cats))

(* --stats, --stats-json, --sort and the --trace* flags of one run.
   Commands without --stats-json or --trace-mask pass no term for them. *)
type telemetry = {
  stats : bool;
  stats_json : bool;
  sort : Dlz_obs.Text.sort;
  trace_out : string option;
  trace_sample : (int64 * float) option;
  trace_mask : string list option;
}

let telemetry_term ?(stats_json = Term.const false)
    ?(trace_mask = Term.const None) () =
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record a structured execution trace (spans for every\n\
                   query, strategy attempt, parse/normalize phase and\n\
                   pool chunk, one track per domain) and write it to\n\
                   FILE in the Chrome trace_event JSON format — open it\n\
                   in chrome://tracing or https://ui.perfetto.dev.")
  in
  let trace_sample_arg =
    let sampling_conv =
      conv_of ~parse:Trace.sampling_of_string ~to_string:(fun (seed, rate) ->
          Printf.sprintf "%Ld:%g" seed rate)
    in
    Arg.(value & opt (some sampling_conv) None
         & info [ "trace-sample" ] ~docv:"[SEED:]RATE"
             ~doc:"Keep each query span with probability RATE\n\
                   (deterministic in SEED; default 1 = keep all).\n\
                   Overrides DLZ_TRACE_SAMPLE.  Only span recording is\n\
                   sampled; histograms always see every query.")
  in
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
  in
  let make stats stats_json sort trace_out trace_sample trace_mask =
    { stats; stats_json; sort; trace_out; trace_sample; trace_mask }
  in
  Term.(const make $ stats_arg $ stats_json $ sort_arg $ trace_out_arg
        $ trace_sample_arg $ trace_mask)

(* Runs [f] inside the run's telemetry.  Before it: sampling, mask and
   recording level (--stats wants latency percentiles even without span
   recording, so it turns on Timing; --trace needs the full event
   stream), then a metrics reset so the readout covers exactly this
   run.  After it: the --stats readout (every registered sample,
   rendered by the collectors a Prometheus scrape reads) followed by
   [more_stats], the --stats-json line, and the trace file. *)
let with_telemetry ?(more_stats = ignore) t f =
  Option.iter (fun (seed, rate) -> Trace.set_sampling ~seed rate)
    t.trace_sample;
  set_trace_mask t.trace_mask;
  (match t.trace_out with
  | Some _ -> Trace.set_level Trace.Full
  | None -> if t.stats || t.stats_json then Trace.set_level Trace.Timing);
  Dlz_engine.Engine.reset_metrics ();
  let result = f () in
  if t.stats then begin
    print_newline ();
    print_string
      (Dlz_obs.Text.to_string ~sort:t.sort (Dlz_obs.Registry.collect ()));
    more_stats ()
  end;
  if t.stats_json then
    print_endline
      (Dlz_obs.Jsonx.to_string
         (Dlz_obs.Snap.to_json (Dlz_obs.Registry.collect ())));
  Option.iter
    (fun path ->
      let events = List.length (Trace.events ()) in
      Trace.export_chrome path;
      Printf.printf "trace: wrote %s (%d events, %d dropped)\n" path events
        (Trace.dropped ()))
    t.trace_out;
  result

let jobs_arg =
  Arg.(value & opt (non_negative "domain count") 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Answer dependence queries on N domains in parallel\n\
                 (default 1 = serial; 0 = the recommended domain count\n\
                 for this machine).  Output is identical for any N.")

let chunk_arg =
  Arg.(value & opt (some (positive "candidate count")) None
       & info [ "chunk" ] ~docv:"K"
           ~doc:"Queries per work-stealing deal (default: auto-tuned\n\
                 from observed per-query cost and queue-wait telemetry).\n\
                 Output is identical for any K.")

(* --- commands ------------------------------------------------------------ *)

let ranges_arg =
  Arg.(value & flag
       & info [ "ranges" ]
           ~doc:"Also print Wolf-Lam range vectors (exact per-level\n\
                 delta ranges) for each dependence [WL91].")

let analyze_one ~cascade ~budget ~pool ~chunk ~ranges input =
  let prog = prepare input in
  let env = input.env in
  print_endline (Ast.to_string prog);
  print_newline ();
  let deps =
    Analyze.deps_of_program ~cascade ?budget ?pool ?chunk ~env prog
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
    (Dlz_vec.Parallel.report ~cascade ?budget ?pool ?chunk ~env prog)

(* The --stats lines only analyze prints: cache shard occupancy and the
   injected fault count. *)
let print_cache_stats () =
  let module Query = Dlz_engine.Query in
  let cache = Query.global_cache in
  let ints a = String.concat " " (List.map string_of_int (Array.to_list a)) in
  let flushes = Query.shard_flushes cache in
  Printf.printf
    "cache shards: %d x %d entries; sizes [%s]; flushes per shard [%s] \
     (total %d)\n"
    (Query.shards cache) (Query.shard_capacity cache)
    (ints (Query.shard_sizes cache))
    (ints flushes)
    (Array.fold_left ( + ) 0 flushes);
  match Dlz_engine.Chaos.current () with
  | Some c ->
      Printf.printf "chaos: seed %Ld rate %g, %d faults injected\n"
        (Dlz_engine.Chaos.seed c) (Dlz_engine.Chaos.rate c)
        (Dlz_engine.Chaos.strikes c)
  | None -> ()

let analyze_cmd =
  let timings_arg =
    Arg.(value & flag
         & info [ "timings" ]
             ~doc:"Bulk mode: add per-file elapsed_ns and summary cache\n\
                   warm/cold disposition to the NDJSON report.  These\n\
                   fields are scheduling-dependent, so the report is no\n\
                   longer byte-identical across --jobs values.")
  in
  let run input cascade budget jobs chunk chaos cache ranges timings
      telemetry =
    set_chaos chaos;
    with_telemetry ~more_stats:print_cache_stats telemetry @@ fun () ->
    let module Persist = Dlz_engine.Persist in
    Dlz_base.Pool.with_jobs ~jobs (fun pool ->
        (match cache.cache_load with
        | None -> ()
        | Some p -> (
            match Persist.load ?pool p with
            | Ok _ -> ()
            | Error reason ->
                (* An explicit --cache-load that fails deserves a word;
                   the quiet path is --cache-auto before any snapshot
                   exists.  Either way the run proceeds cold (the
                   refusal is counted in --stats). *)
                if cache.cache_explicit_load then
                  Printf.eprintf "warning: snapshot %s: %s; starting cold\n%!"
                    p reason));
        (match input.target with
        | `Dir d ->
            List.iter print_endline
              (Dlz_driver.Bulk.run ~cascade ?budget ?pool ~env:input.env
                 ~timings d)
        | `File file ->
            analyze_one ~cascade ~budget ~pool ~chunk ~ranges
              { input with target = file });
        match cache.cache_save with
        | None -> ()
        | Some p -> (
            match Persist.save p with
            | Ok _ -> ()
            | Error reason ->
                Printf.eprintf "warning: snapshot save %s: %s\n%!" p reason))
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Normalize a program and report its dependences.")
    Term.(const run $ input_term file_or_dir_arg $ tester_term $ budget_term
          $ jobs_arg $ chunk_arg $ chaos_arg $ cache_term $ ranges_arg
          $ timings_arg
          $ telemetry_term ~stats_json:stats_json_arg
              ~trace_mask:trace_mask_arg ())

let vectorize_cmd =
  let run input cascade =
    let prog = prepare input in
    let r = Codegen.run ~cascade ~env:input.env prog in
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
      r.Codegen.plans
  in
  Cmd.v
    (Cmd.info "vectorize"
       ~doc:"Run the Allen-Kennedy vectorizer over the program.")
    Term.(const run $ input_term file_arg $ mode_arg)

let delinearize_cmd =
  let run input =
    let prog', plans = Reshape.apply ~env:input.env (prepare input) in
    if plans = [] then print_endline "No array could be reshaped (see --assume)."
    else
      List.iter
        (fun (pl : Reshape.plan) ->
          Printf.printf "reshaped %s: %d dimensions\n" pl.Reshape.array
            (List.length pl.Reshape.extents))
        plans;
    print_endline (Ast.to_string prog')
  in
  Cmd.v
    (Cmd.info "delinearize"
       ~doc:"Recover multidimensional shapes of linearized arrays.")
    Term.(const run $ input_term file_arg)

let trace_cmd =
  let run input =
    let prog = prepare input in
    let accs, env = Dlz_ir.Access.of_program ~env:input.env prog in
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
    if !shown = 0 then print_endline "No testable reference pairs."
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the Figure-5-style delinearization trace for every\n\
             dependence equation of the program.")
    Term.(const run $ input_term file_arg)

let graph_cmd =
  let dot_arg =
    Arg.(value & flag
         & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of plain text.")
  in
  let run input cascade dot jobs chunk =
    (* Same scoping discipline as analyze: metrics cover exactly this
       invocation's work. *)
    Dlz_engine.Engine.reset_metrics ();
    let prog = prepare input in
    let g = Depgraph.build ~cascade ~jobs ?chunk ~env:input.env prog in
    if not dot then Format.printf "%a@." Depgraph.pp g
    else begin
      print_endline "digraph deps {";
      Array.iteri
        (fun i name -> Printf.printf "  n%d [label=\"%s\"];\n" i name)
        g.Depgraph.stmt_names;
      List.iter
        (fun (e : Depgraph.edge) ->
          Printf.printf "  n%d -> n%d [label=\"%s %s%s\"];\n" e.e_src e.e_dst
            (Dlz_deptest.Dirvec.to_string e.e_vec)
            (Dlz_deptest.Classify.to_string e.e_kind)
            (if e.e_level = max_int then "" else Printf.sprintf " @%d" e.e_level))
        g.Depgraph.edges;
      print_endline "}"
    end
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Print the statement dependence graph (optionally as DOT).")
    Term.(const run $ input_term file_arg $ mode_arg $ dot_arg $ jobs_arg
          $ chunk_arg)

let experiments_cmd =
  let id_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id (e1..e8); all when omitted.")
  in
  let run id jobs chunk =
    (* Same scoping discipline as analyze: metrics cover exactly this
       invocation's work. *)
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
            exit 1)
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
    print_endline (Experiments.e2 ())
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
  let run seed count shrink corpus polybench limit out replay jobs fuel chaos
      telemetry =
    set_chaos chaos;
    let bad =
      with_telemetry telemetry @@ fun () ->
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
      Differ.count_class report Differ.Unsound
      + Differ.count_class report Differ.Internal
    in
    if bad > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential soundness fuzzing: cross-check every registered\n\
             strategy against a brute-force oracle (and against each\n\
             other) over generated dependence equations.")
    Term.(const run $ seed_arg $ count_arg $ shrink_arg $ corpus_flag
          $ polybench_flag $ limit_arg $ out_arg $ replay_arg $ jobs_arg
          $ fuel_arg $ chaos_arg $ telemetry_term ())

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

(* A daemon address flag: absent, the per-user default socket. *)
let addr_term name ~doc =
  let addr_conv =
    conv_of ~parse:Dlz_serve.Addr.of_string ~to_string:Dlz_serve.Addr.to_string
  in
  let resolve = function
    | Some a -> a
    | None -> Dlz_serve.Addr.Unix_sock (default_socket ())
  in
  let addr = Arg.info [ name ] ~docv:"ADDR" ~doc in
  Term.(const resolve $ Arg.(value & opt (some addr_conv) None addr))

let serve_cmd =
  let address_term =
    addr_term "listen"
      ~doc:"Address to listen on: 'unix:PATH', a bare socket\n\
            path, 'tcp:HOST:PORT', or 'HOST:PORT'.  Port 0\n\
            requests an ephemeral TCP port (printed at startup).\n\
            Default: a per-user unix socket under\n\
            \\$XDG_RUNTIME_DIR or /tmp."
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
    Arg.(value & opt (some (non_negative "step count")) None
         & info [ "request-fuel" ] ~docv:"N"
             ~doc:"Per-request solver-step ceiling.  A client may ask\n\
                   for less (the 'fuel' request field); the effective\n\
                   budget is the smaller of the two, carved from the\n\
                   server-wide budget.")
  in
  let request_timeout_arg =
    Arg.(value & opt (some (non_negative "millisecond count")) (Some 2_000)
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
  let run address workers queue request_fuel request_timeout_ms
      idle_timeout_ms max_frame retry_after_ms fuel timeout_ms cascade chaos
      cache stats_json quiet metrics_dump metrics_dump_interval_ms trace_mask =
    set_chaos chaos;
    set_trace_mask trace_mask;
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
    Term.(const run $ address_term $ workers_arg $ queue_arg $ request_fuel_arg
          $ request_timeout_arg $ idle_timeout_arg $ max_frame_arg
          $ retry_after_arg $ fuel_arg $ timeout_arg $ cascade_arg $ chaos_arg
          $ cache_term $ stats_json_arg
          $ quiet_arg $ metrics_dump_arg $ metrics_dump_interval_arg
          $ trace_mask_arg)

let stats_cmd =
  let connect_term =
    addr_term "connect"
      ~doc:"Daemon address: 'unix:PATH', a bare socket path,\n\
            'tcp:HOST:PORT', or 'HOST:PORT'.  Default: the\n\
            per-user unix socket `vic serve` listens on."
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
  let run addr format watch interval_ms count =
    Dlz_driver.Serve.run_stats ~addr ~format ~watch ~interval_ms ~count ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Scrape a running `vic serve` daemon's metrics (the\n\
             'metrics' protocol verb): Prometheus exposition text or\n\
             the versioned JSON snapshot, one-shot or as a --watch\n\
             live poller.")
    Term.(const run $ connect_term $ format_arg $ watch_arg $ interval_arg
          $ count_arg)

let main_cmd =
  let doc = "delinearization-based dependence analysis (Maslov, PLDI 1992)" in
  Cmd.group (Cmd.info "vic" ~version:"1.0.0" ~doc)
    [
      analyze_cmd; vectorize_cmd; delinearize_cmd; trace_cmd; graph_cmd;
      experiments_cmd; corpus_cmd; fuzz_cmd; serve_cmd; stats_cmd;
    ]

let () = exit (with_diagnostics (fun () -> Cmd.eval ~catch:false main_cmd))
