(* bulk-cold and bulk-warm: repeated [Bulk.run] passes over the vendored
   polybench corpus, serially, each pass starting from
   [Engine.reset_metrics].  The cold pass is the first [vic analyze
   --dir] run, which solves and fills the cache; the warm pass loads a
   snapshot first, the [--cache-load] run, and only reads the cache.
   An operation and a latency sample are one kernel: the per-file time
   [vic analyze --dir --timings] reports.  (A whole pass is too few
   samples for a steady p99: about 1300 a run, whose slowest 1% are
   garbage-collection and host-interference outliers.)  Times are
   corrected to nominal host speed, see [Hostspeed]. *)

open Harness
module Bulk = Dlz_driver.Bulk
module Engine = Dlz_engine.Engine
module Persist = Dlz_engine.Persist
module Analyze = Dlz_engine.Analyze
module Access = Dlz_ir.Access

(* Run-time files live here, inside the checkout the suite runs from. *)
let work_dir = ".perfbench"

let cascade = Analyze.cascade_of_mode Analyze.Delinearize

let load snap =
  match Persist.load snap with
  | Ok n -> n
  | Error e -> failwith ("snapshot load: " ^ e)

(* One pass as the CLI runs it: the metrics reset is untimed; the
   snapshot load (warm only) and the analysis are timed. *)
let pass ~snapshot =
  Engine.reset_metrics ();
  let t0 = now_ns () in
  Option.iter (fun s -> ignore (load s)) snapshot;
  let lines = Bulk.run ~timings:true Inputs.corpus_dir in
  (since_ns t0, lines)

(* With [~timings:true] every report line ends with the kernel's
   ["elapsed_ns"], and the summary also with the cache counters; the
   golden comparison cuts both. *)
let elapsed_field = ",\"elapsed_ns\":"

let strip_timings line =
  match Inputs.find_sub line elapsed_field with
  | Some i -> String.sub line 0 i ^ "}"
  | None -> line

(* A kernel line's analysis time in ms; [None] for the summary. *)
let kernel_ms line =
  if Inputs.find_sub line "\"summary\":" <> None then None
  else
    Option.map
      (fun i ->
        let j = i + String.length elapsed_field in
        float_of_string (String.sub line j (String.index_from line j '}' - j)) /. 1e6)
      (Inputs.find_sub line elapsed_field)

(* The same pass as the sequence of layer calls [Bulk.analyze_file]
   makes for each kernel, each wrapped by [layers].  Report rendering
   and the directory walk are left out; they are what
   [driver.unaccounted_share] measures. *)
let replay layers ~snapshot files =
  Engine.reset_metrics ();
  let span name f = Layers.span layers name f in
  let t0 = now_ns () in
  Option.iter (fun s -> ignore (span "engine.persist_load" (fun () -> load s))) snapshot;
  List.iter
    (fun rel ->
      let src = Inputs.read_file (Filename.concat Inputs.corpus_dir rel) in
      let ast = span "frontend.parse" (fun () -> Dlz_frontend.C_parser.parse src) in
      let prog = span "passes.lower" (fun () -> Dlz_passes.Pointers.lower ast) in
      let prog =
        span "passes.prepare" (fun () -> Dlz_passes.Pipeline.prepare_program prog)
      in
      let accs, env = span "ir.access" (fun () -> Access.of_program ~env:Assume.empty prog) in
      ignore (span "engine.query" (fun () -> Engine.query_all ~cascade ~env accs));
      ignore (span "analyze.deps" (fun () -> Analyze.deps_of_accesses ~cascade ~env accs));
      ignore
        (span "vec.parallel" (fun () ->
             Dlz_vec.Parallel.report ~cascade ~env:Assume.empty prog)))
    files;
  since_ns t0

(* Untimed walk of the corpus through the pipeline: the access count,
   the enumeration time and the (environment, problem) of every pair. *)
let enumerate files =
  let enum_ns = ref 0. and accesses = ref 0 and cases = ref [] in
  List.iter
    (fun rel ->
      let src = Inputs.read_file (Filename.concat Inputs.corpus_dir rel) in
      let prog =
        Dlz_passes.Pipeline.prepare_program
          (Dlz_passes.Pointers.lower (Dlz_frontend.C_parser.parse src))
      in
      let accs, env = Access.of_program ~env:Assume.empty prog in
      accesses := !accesses + List.length accs;
      let t0 = now_ns () in
      let pairs = List.of_seq (Engine.pairs_seq accs) in
      enum_ns := !enum_ns +. since_ns t0;
      cases := List.rev_append (List.map (fun (p : Engine.pair) -> (env, p.Engine.problem)) pairs) !cases)
    files;
  (!enum_ns, !accesses, Array.of_list (List.rev !cases))

let count_failed lines =
  List.length (List.filter (fun l -> Inputs.find_sub l "\"ok\":false" <> None) lines)

let setup ~warm ~seed:_ =
  let expected = Inputs.golden_lines () in
  let files = Inputs.kernels () in
  List.iter
    (fun f ->
      if not (Filename.check_suffix f ".c") then
        failwith ("bulk workloads replay C kernels only: " ^ f))
    files;
  let kernels = List.length files in
  let source_bytes =
    List.fold_left
      (fun n f -> n + String.length (Inputs.read_file (Filename.concat Inputs.corpus_dir f)))
      0 files
  in
  let snapshot, entries =
    if not warm then (None, 0)
    else begin
      Engine.reset_metrics ();
      ignore (Bulk.run Inputs.corpus_dir);
      if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
      let path =
        Filename.concat work_dir (Printf.sprintf "bulk-warm-%d.snap" (Unix.getpid ()))
      in
      match Persist.save path with
      | Ok n -> (Some path, n)
      | Error e -> failwith ("snapshot save: " ^ e)
    end
  in
  let passes = ref 0 and mismatched = ref 0 and first_diff = ref None in
  let warm_misses = ref 0 in
  (* Checks one pass's report against the golden; returns its failed
     kernel count.  Reads the engine counters, so it must run before
     the next reset. *)
  let check_pass lines =
    incr passes;
    let got = List.map (fun l -> Inputs.strip_decided_by (strip_timings l)) lines in
    if got <> expected then begin
      incr mismatched;
      if !first_diff = None then
        first_diff :=
          List.find_opt (fun l -> not (List.mem l expected)) got
          |> Option.value ~default:"(line count differs)"
          |> Option.some
    end;
    if warm then warm_misses := !warm_misses + Estats.cache_misses Estats.global;
    count_failed lines
  in
  (* Warm-up pass: faults in code and data before anything is timed. *)
  ignore (check_pass (snd (pass ~snapshot)));
  let measure ~until each =
    let lat = Stats.Samples.create sample_cap in
    let busy = ref 0. and raw = ref 0. and n = ref 0 and failed = ref 0 in
    let meter = Hostspeed.meter () in
    let rec loop () =
      let ns, lines = pass ~snapshot in
      let speed = Hostspeed.factor meter in
      busy := !busy +. (ns *. speed);
      raw := !raw +. ns;
      List.iter
        (fun l -> Option.iter (fun ms -> Stats.Samples.add lat (ms *. speed)) (kernel_ms l))
        lines;
      incr n;
      failed := !failed + check_pass lines;
      each ns;
      if now () < until then loop ()
    in
    loop ();
    {
      ops = (!n * kernels) - !failed;
      busy_s = !busy /. 1e9;
      latency_ms = Stats.Samples.to_array lat;
      attempted = !n * kernels;
      failed = !failed;
      speed = ratio !busy !raw;
    }
  in
  let run ~until = measure ~until ignore in
  let traced ~until =
    let on = Layers.create ~on:true and off = Layers.create ~on:false in
    let rounds = ref 0 and wall_ns = ref 0. and traced_ns = ref 0. and plain_ns = ref 0. in
    let last = ref zero_counters in
    (* Each round: one real pass (measured as usual, its engine
       counters kept), then the replay untraced and traced. *)
    let m =
      measure ~until (fun ns ->
          wall_ns := !wall_ns +. ns;
          last := counters ();
          plain_ns := !plain_ns +. replay off ~snapshot files;
          traced_ns := !traced_ns +. replay on ~snapshot files;
          incr rounds)
    in
    let r = fi !rounds in
    let per name = Layers.ns on name /. r in
    let wall = !wall_ns /. r in
    let enum_ns, accesses, cases = enumerate files in
    let pairs = Array.length cases in
    let probe = probe cases in
    let probed name = (List.find (fun x -> x.name = name) probe).value in
    let cacheable =
      Array.fold_left
        (fun n (_, p) ->
          if Query.key_of ~cascade:cascade.Cascade.name p <> None then n + 1 else n)
        0 cases
    in
    let ms ns = ns /. 1e6 in
    ( m,
      [ metric "engine.query_us" "us" (per "engine.query" /. fi pairs /. 1e3) ]
      @ probe
      @ engine_metrics ~pairs zero_counters !last
      @ shares ~wall_ns:wall
          [
            ("frontend", per "frontend.parse");
            ("passes", per "passes.lower" +. per "passes.prepare");
            ("ir", per "ir.access");
            ("engine", per "engine.query" +. per "engine.persist_load");
            ("analyze", per "analyze.deps");
            ("vec", per "vec.parallel");
          ]
      @ [ trace_overhead ~traced:!traced_ns ~untraced:!plain_ns ]
      @ [
          metric "driver.pass_ms" "ms" (ms wall);
          metric "frontend.parse_ms" "ms" (ms (per "frontend.parse"));
          metric "frontend.bytes_per_ms" "B/ms" (ratio (fi source_bytes) (ms (per "frontend.parse")));
          metric "passes.lower_ms" "ms" (ms (per "passes.lower"));
          metric "passes.prepare_ms" "ms" (ms (per "passes.prepare"));
          metric "ir.access_ms" "ms" (ms (per "ir.access"));
          metric "ir.accesses" "count" (fi accesses);
          metric "engine.enumerate_ms" "ms" (ms enum_ns);
          metric "engine.pairs" "count" (fi pairs);
          metric "engine.key_ms" "ms" (probed "engine.key_us" *. fi pairs /. 1e3);
          metric "engine.cacheable_ratio" "ratio" (ratio (fi cacheable) (fi pairs));
          metric "engine.query_ms" "ms" (ms (per "engine.query"));
          metric "engine.cascade_ms" "ms" (probed "engine.cascade_us" *. fi pairs /. 1e3);
          metric "analyze.deps_ms" "ms" (ms (per "analyze.deps"));
          metric "vec.parallel_ms" "ms" (ms (per "vec.parallel"));
        ]
      @
      if warm then
        [
          metric "engine.persist_load_ms" "ms" (ms (per "engine.persist_load"));
          metric "engine.persist_entries" "count" (fi entries);
        ]
      else [] )
  in
  let checks () =
    {
      what = "golden";
      ok = !mismatched = 0;
      detail =
        Printf.sprintf "%d/%d passes equal %s with decided_by removed%s"
          (!passes - !mismatched) !passes Inputs.golden_file
          (match !first_diff with Some l -> "; first difference: " ^ l | None -> "");
    }
    ::
    (if warm then
       [
         {
           what = "cache-only";
           ok = !warm_misses = 0;
           detail = Printf.sprintf "%d cache misses over %d warm passes" !warm_misses !passes;
         };
       ]
     else [])
  in
  let teardown () =
    Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) snapshot;
    Engine.reset_metrics ()
  in
  { run; traced; checks; teardown }
