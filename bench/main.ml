(* Bechamel benchmark harness: one group per paper table/figure (see
   DESIGN.md §3), plus the design-choice ablations.

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
module Tbl = Dlz_base.Table
module Prng = Dlz_base.Prng
module Depeq = Dlz_deptest.Depeq
module Verdict = Dlz_deptest.Verdict
module Gcd_test = Dlz_deptest.Gcd_test
module Banerjee = Dlz_deptest.Banerjee
module Svpc = Dlz_deptest.Svpc
module Acyclic = Dlz_deptest.Acyclic
module Residue = Dlz_deptest.Residue
module Fm = Dlz_deptest.Fm
module Exact = Dlz_deptest.Exact
module Omega = Dlz_deptest.Omega
module Lambda = Dlz_deptest.Lambda
module Problem = Dlz_deptest.Problem
module Hierarchy = Dlz_deptest.Hierarchy
module Algo = Dlz_core.Algo
module Symalgo = Dlz_core.Symalgo
module An = Dlz_engine.Analyze
module Cascade = Dlz_engine.Cascade
module Budget = Dlz_base.Budget
module Trace = Dlz_base.Trace
module Chaos = Dlz_engine.Chaos
module Codegen = Dlz_vec.Codegen
module Corpus = Dlz_corpus.Corpus
module Fragments = Dlz_driver.Fragments
module Workload = Dlz_driver.Workload
module Experiments = Dlz_driver.Experiments
module Jsonx = Dlz_obs.Jsonx

let stage = Staged.stage

(* The one wall-clock source for every companion arm (parallel, cache,
   robustness, trace, oracle): the same monotonic clock the budgets and
   the recorder use. *)
let now_s () = Int64.to_float (Trace.now_ns ()) /. 1e9

(* The upper median of a sample (the middle element for odd sizes). *)
let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Host provenance stamped into every BENCH_*.json header: scaling and
   overhead numbers are meaningless without the core count and the
   compiler that produced them. *)
let host =
  ( "host",
    Jsonx.Obj
      [
        ("cores", Jsonx.Int (Domain.recommended_domain_count ()));
        ("ocaml", Jsonx.Str Sys.ocaml_version);
      ] )

(* Every companion arm reports through here: the host header, then the
   arm's own fields, as one line in BENCH_<arm>.json and on stdout. *)
let write_report arm fields =
  let line = Jsonx.to_string (Jsonx.Obj (host :: fields)) in
  let oc = open_out ("BENCH_" ^ arm ^ ".json") in
  output_string oc line;
  output_char oc '\n';
  close_out oc;
  print_endline line

(* --- prebuilt inputs (allocation outside the timed region) ------------- *)

let eq1 = Fragments.eq1 ()
let fig5 = Fragments.fig5_equation ()

let fig3_prog =
  Dlz_passes.Pipeline.prepare_program
    (Dlz_frontend.F77_parser.parse Fragments.fig3_program)

let mhl_prog =
  Dlz_passes.Pipeline.prepare_program
    (Dlz_frontend.F77_parser.parse Fragments.mhl_program)

let ib_prog =
  Dlz_passes.Pipeline.prepare_program
    (Dlz_frontend.F77_parser.parse Fragments.ib_program)

let sphot_spec =
  List.find (fun s -> s.Corpus.name = "SPHOT") Corpus.riceps

let sphot = Corpus.generate sphot_spec

let e6_eq, e6_env =
  let prog =
    Dlz_passes.Pipeline.prepare_program
      (Dlz_frontend.F77_parser.parse Fragments.symbolic_program)
  in
  let accs, env = Dlz_ir.Access.of_program prog in
  match accs with
  | [ w; r ] -> (
      match Problem.of_accesses w r with
      | Some p -> (List.hd p.Problem.equations, env)
      | None -> failwith "bench: e6 problem construction failed")
  | _ -> failwith "bench: unexpected e6 accesses"

(* --- test groups --------------------------------------------------------- *)

let e1_group =
  Test.make_grouped ~name:"e1"
    [
      Test.make ~name:"gcd" (stage (fun () -> Gcd_test.test eq1));
      Test.make ~name:"banerjee" (stage (fun () -> Banerjee.test eq1));
      Test.make ~name:"svpc" (stage (fun () -> Svpc.test eq1));
      Test.make ~name:"acyclic" (stage (fun () -> Acyclic.test eq1));
      Test.make ~name:"residue" (stage (fun () -> Residue.test eq1));
      Test.make ~name:"fm-real" (stage (fun () -> Fm.test Fm.Real eq1));
      Test.make ~name:"fm-tight" (stage (fun () -> Fm.test Fm.Tightened eq1));
      Test.make ~name:"delinearize" (stage (fun () -> Algo.test eq1));
      Test.make ~name:"lambda" (stage (fun () -> Lambda.test [ eq1 ]));
      Test.make ~name:"omega" (stage (fun () -> Omega.test [ eq1 ]));
      Test.make ~name:"exact" (stage (fun () -> Exact.test [ eq1 ]));
    ]

let e2_group =
  Test.make_grouped ~name:"e2"
    [
      Test.make ~name:"generate-sphot"
        (stage (fun () -> Corpus.generate sphot_spec));
      Test.make ~name:"detect-sphot"
        (stage (fun () -> Corpus.count_linearized_nests sphot));
      Test.make ~name:"analyze-sphot-full"
        (stage
           (let prog = Dlz_passes.Pipeline.prepare_program sphot in
            fun () -> An.deps_of_program prog));
    ]

let e3_group =
  Test.make_grouped ~name:"e3"
    [
      Test.make ~name:"fig3-analysis"
        (stage (fun () -> An.deps_of_program fig3_prog));
      Test.make ~name:"fig3-analysis-classic"
        (stage (fun () ->
             An.deps_of_program ~cascade:Cascade.classic fig3_prog));
    ]

let e4_group =
  Test.make_grouped ~name:"e4"
    [
      Test.make ~name:"fig5-test" (stage (fun () -> Algo.test fig5));
      Test.make ~name:"fig5-run"
        (stage (fun () ->
             Algo.run ~n_common:3 ~common_ubs:[| 8; 9; 8 |] fig5));
    ]

let e5_group =
  Test.make_grouped ~name:"e5"
    [
      Test.make ~name:"mhl-analysis"
        (stage (fun () -> An.deps_of_program mhl_prog));
    ]

let e6_group =
  Test.make_grouped ~name:"e6"
    [
      Test.make ~name:"symbolic-run"
        (stage (fun () -> Symalgo.run ~env:e6_env ~n_common:3 e6_eq));
    ]

let e7_group =
  Test.make_grouped ~name:"e7"
    [
      Test.make ~name:"vectorize-delin"
        (stage (fun () -> Codegen.run ~cascade:Cascade.delin ib_prog));
      Test.make ~name:"vectorize-classic"
        (stage (fun () -> Codegen.run ~cascade:Cascade.classic ib_prog));
      Test.make ~name:"parallel-report"
        (stage (fun () -> Dlz_vec.Parallel.report ib_prog));
    ]

(* E8: scaling in the number of variables on the linearized family. *)
let e8_depths = [ 1; 2; 3; 4; 5; 6 ]

let e8_group =
  let per_depth depth =
    let eq = Workload.paper_family ~depth ~extent:10 ~shifted:true in
    Test.make_grouped ~name:(Printf.sprintf "d%d" depth)
      [
        Test.make ~name:"delinearize" (stage (fun () -> Algo.test eq));
        Test.make ~name:"banerjee" (stage (fun () -> Banerjee.test eq));
        Test.make ~name:"gcd" (stage (fun () -> Gcd_test.test eq));
        Test.make ~name:"fm-tight" (stage (fun () -> Fm.test Fm.Tightened eq));
        Test.make ~name:"omega" (stage (fun () -> Omega.test [ eq ]));
        Test.make ~name:"exact" (stage (fun () -> Exact.test [ eq ]));
      ]
  in
  Test.make_grouped ~name:"e8" (List.map per_depth e8_depths)

(* Ablation: residue policy. *)
let ablation_group =
  let eq = Workload.paper_family ~depth:4 ~extent:10 ~shifted:true in
  Test.make_grouped ~name:"ablation-residue"
    [
      Test.make ~name:"nonneg"
        (stage (fun () -> Algo.test ~policy:Algo.Nonneg eq));
      Test.make ~name:"symmetric"
        (stage (fun () -> Algo.test ~policy:Algo.Symmetric eq));
      Test.make ~name:"optimal"
        (stage (fun () -> Algo.test ~policy:Algo.Optimal eq));
    ]

let all_tests =
  Test.make_grouped ~name:"dlz"
    [
      e1_group; e2_group; e3_group; e4_group; e5_group; e6_group; e7_group;
      e8_group; ablation_group;
    ]

(* --- runner -------------------------------------------------------------- *)

let benchmark () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second 0.25) ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  Analyze.all ols Instance.monotonic_clock raw

let print_results results =
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let t =
    Tbl.create ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right ]
      [ "benchmark"; "time/run (ns)"; "r^2" ]
  in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%.1f" e
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      Tbl.add_row t [ name; est; r2 ])
    rows;
  print_string (Tbl.render t)

(* --- non-timing companion tables ----------------------------------------- *)

(* Residue-policy ablation: how often each policy manages to split, and
   how often the inline test proves independence, on random linearized
   equations (the design-choice ablation of DESIGN.md §4). *)
let residue_ablation () =
  let n = 500 in
  let t =
    Tbl.create
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right ]
      [ "policy"; "avg pieces (depth 3)"; "independent found" ]
  in
  List.iter
    (fun (name, policy) ->
      let g = Prng.create 7L in
      let pieces = ref 0 and indep = ref 0 in
      for _ = 1 to n do
        let eq = Workload.random_linearized g ~depth:3 in
        let r = Algo.run ~policy ~n_common:3 ~common_ubs:[| 9; 9; 9 |] eq in
        pieces := !pieces + List.length r.Algo.pieces;
        if r.Algo.verdict = Verdict.Independent then incr indep
      done;
      Tbl.add_row t
        [
          name;
          Printf.sprintf "%.2f" (float_of_int !pieces /. float_of_int n);
          string_of_int !indep;
        ])
    [
      ("nonneg", Algo.Nonneg);
      ("symmetric", Algo.Symmetric);
      ("optimal", Algo.Optimal);
    ];
  print_string (Tbl.render t)

(* Precision: delinearization vs baselines on the random family, exact
   ground truth (shape of the paper's precision claim). *)
let precision_table () =
  let n = 400 in
  let g = Prng.create 99L in
  let delin = ref 0 and ban = ref 0 and fmt = ref 0 and gcd = ref 0 in
  let total_indep = ref 0 in
  for _ = 1 to n do
    let eq = Workload.random_linearized g ~depth:3 in
    if Exact.test [ eq ] = Verdict.Independent then begin
      incr total_indep;
      if Algo.test eq = Verdict.Independent then incr delin;
      if Banerjee.test eq = Verdict.Independent then incr ban;
      if Gcd_test.test eq = Verdict.Independent then incr gcd;
      if Fm.test Fm.Tightened eq = Verdict.Independent then incr fmt
    end
  done;
  let t =
    Tbl.create ~aligns:[ Tbl.Left; Tbl.Right ]
      [ "technique"; "independences proven" ]
  in
  Tbl.add_row t [ "exact (ground truth)"; string_of_int !total_indep ];
  Tbl.add_row t [ "delinearization"; string_of_int !delin ];
  Tbl.add_row t [ "fm-tightened"; string_of_int !fmt ];
  Tbl.add_row t [ "banerjee"; string_of_int !ban ];
  Tbl.add_row t [ "gcd"; string_of_int !gcd ];
  print_string (Tbl.render t)

let family_prog ~depth ~extent =
  Dlz_passes.Pipeline.prepare_program
    (Dlz_frontend.F77_parser.parse (Workload.family_program ~depth ~extent))

(* --- parallel scaling sweep (BENCH_parallel.json) ------------------------- *)

(* Whole-program analysis throughput as a function of the domain count:
   the corpus + workload-generator programs are analyzed end-to-end at
   jobs ∈ {1, 2, 4, 8}, reusing one pool per job count.  Each run
   reports wall-clock, queries/sec, speedup vs the serial run, and the
   cache hit ratio (the sharded cache is shared by all domains, so the
   ratio should hold steady as jobs grow). *)
let parallel_job_counts = [ 1; 2; 4; 8 ]

let parallel_workload () =
  let corpus =
    List.filter_map
      (fun name ->
        List.find_opt (fun s -> s.Corpus.name = name) Corpus.riceps
        |> Option.map (fun spec ->
               Dlz_passes.Pipeline.prepare_program (Corpus.generate spec)))
      [ "SPHOT"; "SIMPLE" ]
  in
  let family =
    List.map (fun depth -> family_prog ~depth ~extent:10) [ 1; 2; 3; 4 ]
  in
  corpus @ family @ [ fig3_prog; mhl_prog; ib_prog ]

type parallel_run = {
  pr_jobs : int;
  pr_elapsed : float;
  pr_cold : float;  (** Rep 1 alone: empty cache, every solve paid. *)
  pr_warm_rep : float;  (** Per-rep average of reps 2..n: all hits. *)
  pr_queries : int;
  pr_qps : float;
  pr_speedup : float;
  pr_hit_ratio : float;
}

let parallel_report () =
  let progs = parallel_workload () in
  let reps = 10 in
  let measure jobs =
    Dlz_engine.Engine.reset_metrics ();
    (* Rep 1 runs against the freshly cleared cache (the cold run);
       the remaining reps replay the same programs entirely from it.
       Timing the two regions apart splits the cost of solving from
       the cost of serving — the same split the cache snapshot arm
       reports across process boundaries. *)
    let cold, elapsed =
      Dlz_base.Pool.with_pool ~domains:jobs (fun pool ->
          let t0 = now_s () in
          List.iter (fun p -> ignore (An.deps_of_program ~pool p)) progs;
          let cold = now_s () -. t0 in
          for _ = 2 to reps do
            List.iter (fun p -> ignore (An.deps_of_program ~pool p)) progs
          done;
          (cold, now_s () -. t0))
    in
    let st = Dlz_engine.Stats.global in
    let queries = Dlz_engine.Stats.queries st in
    {
      pr_jobs = jobs;
      pr_elapsed = elapsed;
      pr_cold = cold;
      pr_warm_rep =
        (if reps > 1 then (elapsed -. cold) /. float_of_int (reps - 1)
         else 0.);
      pr_queries = queries;
      pr_qps =
        (if elapsed > 0. then float_of_int queries /. elapsed else 0.);
      pr_speedup = 1.0 (* filled against the serial run below *);
      pr_hit_ratio = Dlz_engine.Stats.hit_ratio st;
    }
  in
  let runs = List.map measure parallel_job_counts in
  let serial =
    match runs with r :: _ -> r.pr_elapsed | [] -> 0.
  in
  let runs =
    List.map
      (fun r ->
        {
          r with
          pr_speedup = (if r.pr_elapsed > 0. then serial /. r.pr_elapsed else 0.);
        })
      runs
  in
  let t =
    Tbl.create
      ~aligns:[ Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right;
                Tbl.Right; Tbl.Right ]
      [ "jobs"; "elapsed (s)"; "cold (s)"; "warm rep (s)"; "queries/sec";
        "speedup"; "hit ratio" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          string_of_int r.pr_jobs;
          Printf.sprintf "%.3f" r.pr_elapsed;
          Printf.sprintf "%.3f" r.pr_cold;
          Printf.sprintf "%.4f" r.pr_warm_rep;
          Printf.sprintf "%.0f" r.pr_qps;
          Printf.sprintf "%.2fx" r.pr_speedup;
          Printf.sprintf "%.3f" r.pr_hit_ratio;
        ])
    runs;
  print_string (Tbl.render t);
  let run r =
    Jsonx.(
      Obj
        [ ("jobs", Int r.pr_jobs); ("elapsed_sec", Float r.pr_elapsed);
          ("cold_sec", Float r.pr_cold); ("warm_rep_sec", Float r.pr_warm_rep);
          ("queries", Int r.pr_queries); ("queries_per_sec", Float r.pr_qps);
          ("speedup_vs_serial", Float r.pr_speedup);
          ("cache_hit_ratio", Float r.pr_hit_ratio) ])
  in
  write_report "parallel"
    Jsonx.
      [ ("workload", Str "corpus+paper-family");
        ("programs", Int (List.length progs)); ("reps", Int reps);
        ("runs", List (List.map run runs)) ]

(* --- warm-start snapshot speedup (BENCH_cache.json) ------------------------ *)

(* What a persisted cache is worth.  The headline comparison is
   apples-to-apples by construction: both arms take the cache from
   empty to the {e identical} fully-warm state (every distinct
   canonical form of the oracle corpus resident).

   - cold: query each distinct canonical form once from an empty cache
     — every query is a miss, so this times exactly the solving work a
     first run pays to populate;
   - warm: [Persist.load] of the snapshot holding the same entries.

   Their median ratio is the warm-start speedup.  The corpus's raw
   29k-pair sweep is also timed cold and warm (load included) for
   context — there the intra-run hit traffic, identical in both arms,
   dilutes the ratio toward 1; the split mirrors the cold-run /
   warm-rep split of BENCH_parallel.json.  Trials are interleaved so
   machine drift hits every arm alike. *)
let cache_report () =
  let module Eqgen = Dlz_oracle.Eqgen in
  let module Persist = Dlz_engine.Persist in
  let module Engine = Dlz_engine.Engine in
  let module Query = Dlz_engine.Query in
  let probs =
    Array.of_list
      (List.map
         (fun (c : Eqgen.case) -> Problem.synthetic c.Eqgen.ground)
         (Eqgen.corpus ()))
  in
  (* The distinct canonical forms behind those pairs — "delin" is the
     cascade Engine.query defaults to, so these keys are the ones the
     sweep populates. *)
  let uniq =
    let seen = Hashtbl.create 4096 in
    Array.of_list
      (List.filter
         (fun p ->
           match Query.key_of ~cascade:"delin" p with
           | Some k ->
               if Hashtbl.mem seen k then false
               else begin
                 Hashtbl.add seen k ();
                 true
               end
           | None -> false)
         (Array.to_list probs))
  in
  let env = Dlz_symbolic.Assume.empty in
  let sweep arr = Array.iter (fun p -> ignore (Engine.query ~env p)) arr in
  let snap = Filename.temp_file "dlz_bench_cache" ".snap" in
  (* Seed the snapshot (and fault in the corpus pages) once, untimed. *)
  Dlz_engine.Engine.reset_metrics ();
  sweep probs;
  let entries =
    match Persist.save snap with
    | Ok n -> n
    | Error e -> failwith ("bench: snapshot save failed: " ^ e)
  in
  let snapshot_bytes =
    let ic = open_in_bin snap in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> in_channel_length ic)
  in
  let load () =
    match Persist.load snap with
    | Ok n -> n
    | Error e -> failwith ("bench: snapshot load failed: " ^ e)
  in
  let timed f =
    Dlz_engine.Engine.reset_metrics ();
    let t0 = now_s () in
    f ();
    now_s () -. t0
  in
  let populate_trial () = timed (fun () -> sweep uniq) in
  let warmload_trial () = timed (fun () -> ignore (load ())) in
  let full_cold_trial () = timed (fun () -> sweep probs) in
  let full_warm_trial () =
    timed (fun () ->
        ignore (load ());
        sweep probs)
  in
  let trials = 9 in
  ignore (populate_trial ());
  ignore (warmload_trial ());
  let populate = Array.make trials 0. and warmload = Array.make trials 0. in
  let full_cold = Array.make trials 0. and full_warm = Array.make trials 0. in
  for i = 0 to trials - 1 do
    populate.(i) <- populate_trial ();
    warmload.(i) <- warmload_trial ();
    full_cold.(i) <- full_cold_trial ();
    full_warm.(i) <- full_warm_trial ()
  done;
  (* The last full-warm trial's stats are still live: assert the sweep
     was served entirely by snapshot entries before reporting numbers
     that depend on it. *)
  let st = Dlz_engine.Stats.global in
  let queries = Dlz_engine.Stats.queries st in
  let warm_hits = Dlz_engine.Stats.warm_hits st in
  let misses = Dlz_engine.Stats.cache_misses st in
  if misses > 0 then
    Printf.printf "cache: warning: %d warm-trial misses (capacity?)\n" misses;
  let cold = median populate and warm = median warmload in
  let speedup = if warm > 0. then cold /. warm else 0. in
  let fc = median full_cold and fw = median full_warm in
  let t =
    Tbl.create
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right ]
      [ "cache from empty to warm"; "median (s)"; "vs cold" ]
  in
  Tbl.add_row t
    [
      Printf.sprintf "cold (solve %d unique forms)" (Array.length uniq);
      Printf.sprintf "%.4f" cold;
      "1.00x";
    ];
  Tbl.add_row t
    [
      "warm (snapshot load)";
      Printf.sprintf "%.4f" warm;
      Printf.sprintf "%.2fx" speedup;
    ];
  print_string (Tbl.render t);
  Printf.printf
    "cache: %d pairs (%d unique), %d snapshot entries (%d bytes); full \
     sweep cold %.4fs / warm %.4fs; warm hits %d/%d\n"
    (Array.length probs) (Array.length uniq) entries snapshot_bytes fc fw
    warm_hits queries;
  Sys.remove snap;
  Dlz_engine.Engine.reset_metrics ();
  let fruns a =
    Jsonx.List (List.map (fun x -> Jsonx.Float x) (Array.to_list a))
  in
  write_report "cache"
    Jsonx.
      [ ("workload", Str "eqgen-corpus"); ("pairs", Int (Array.length probs));
        ("unique_forms", Int (Array.length uniq)); ("trials", Int trials);
        ("snapshot_entries", Int entries);
        ("snapshot_bytes", Int snapshot_bytes);
        ("cold_median_sec", Float cold); ("warm_median_sec", Float warm);
        ("warm_speedup", Float speedup); ("target_speedup", Float 3.0);
        ("full_sweep", Obj [ ("cold_sec", Float fc); ("warm_sec", Float fw) ]);
        ("warm_queries", Int queries); ("warm_hits", Int warm_hits);
        ("warm_misses", Int misses); ("cold_runs_sec", fruns populate);
        ("warm_runs_sec", fruns warmload) ]

(* --- containment overhead (BENCH_robustness.json) ------------------------- *)

(* The fault boundary must be (nearly) free on the fault-free path.
   Three configurations of the same serial corpus+family analysis:

   - baseline:  unlimited budget, no injection;
   - budgeted:  a generous budget (never exhausted here), paying the
     [Budget.spend] accounting inside every strategy;
   - chaos-0:   injection configured at rate 0 — every strategy
     boundary consults the content-keyed gate, no fault ever fires.

   The cache is cleared between reps so the measured path is the miss
   (solving) path, where the accounting actually runs.  Overheads are
   ratios to baseline; the target is < 5%. *)
let robustness_report () =
  let progs = parallel_workload () in
  let reps = 8 in
  let trials = 7 in
  let measure ~budget ~chaos =
    let saved = Chaos.current () in
    Chaos.set_current chaos;
    Fun.protect ~finally:(fun () -> Chaos.set_current saved) @@ fun () ->
    let t0 = now_s () in
    for _ = 1 to reps do
      Dlz_engine.Engine.reset_metrics ();
      List.iter (fun p -> ignore (An.deps_of_program ?budget p)) progs
    done;
    now_s () -. t0
  in
  let configs =
    [|
      (fun () -> measure ~budget:None ~chaos:None);
      (fun () ->
        measure
          ~budget:(Some (Budget.create ~fuel:max_int ~timeout_ms:3_600_000 ()))
          ~chaos:None);
      (fun () ->
        measure ~budget:None ~chaos:(Some (Chaos.make ~seed:7L ~rate:0.0)));
    |]
  in
  (* Scheduling noise on this workload is larger than the effect being
     measured, so the trials are interleaved across configurations (so
     machine drift hits all three alike) and each configuration reports
     its fastest trial — the run least disturbed from outside. *)
  Array.iter (fun f -> ignore (f ())) configs;
  let best = Array.map (fun _ -> infinity) configs in
  for _ = 1 to trials do
    Array.iteri (fun i f -> best.(i) <- Float.min best.(i) (f ())) configs
  done;
  let baseline = best.(0) and budgeted = best.(1) and chaos0 = best.(2) in
  let ratio x = if baseline > 0. then x /. baseline else 0. in
  let t =
    Tbl.create
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right ]
      [ "configuration"; "elapsed (s)"; "vs baseline" ]
  in
  List.iter
    (fun (name, x) ->
      Tbl.add_row t
        [ name; Printf.sprintf "%.3f" x; Printf.sprintf "%.3fx" (ratio x) ])
    [ ("baseline", baseline); ("budgeted", budgeted); ("chaos rate 0", chaos0) ];
  print_string (Tbl.render t);
  write_report "robustness"
    Jsonx.
      [ ("workload", Str "corpus+paper-family");
        ("programs", Int (List.length progs)); ("reps", Int reps);
        ("baseline_sec", Float baseline); ("budgeted_sec", Float budgeted);
        ("chaos0_sec", Float chaos0);
        ("budgeted_overhead", Float (ratio budgeted -. 1.));
        ("chaos0_overhead", Float (ratio chaos0 -. 1.));
        ("target_overhead", Float 0.05) ]

(* --- tracing overhead + latency profile (BENCH_trace.json) ---------------- *)

(* The recorder must be invisible when off and cheap when on.  The
   effect being measured is ~100 ns per query against a ~10 ms pass —
   smaller than the machine's own drift (turbo and thermal state move
   the baseline by several percent over a multi-second run), so the
   best-of-interleaved-trials scheme of the other arms cannot resolve
   it.  Instead each enabled pass is paired with an immediately
   adjacent Off pass (the pair sees the same machine state) and the
   reported overhead is the {e median} of the per-pair ratios: immune
   to drift, robust to GC outliers.  The cache is cleared per pass
   (reset_metrics), so the measured path includes the instrumented
   miss path.  Alongside the overhead ratios, a Full-level pass yields
   the per-strategy latency profile — the per-query cost evidence for
   the paper's "delinearization is cheap" claim. *)
let trace_report () =
  let progs = parallel_workload () in
  let pairs = 31 in
  let saved_level = Trace.level () in
  Fun.protect ~finally:(fun () -> Trace.set_level saved_level) @@ fun () ->
  let pass level =
    Trace.set_level level;
    let t0 = now_s () in
    Dlz_engine.Engine.reset_metrics ();
    List.iter (fun p -> ignore (An.deps_of_program p)) progs;
    let dt = now_s () -. t0 in
    Trace.set_level Trace.Off;
    dt
  in
  for _ = 1 to 6 do ignore (pass Trace.Off) done;
  (* Best-of-two on each side of a pair shaves one-off hiccups without
     widening the window the pair spans. *)
  let ratios level =
    Array.init pairs (fun _ ->
        let off = Float.min (pass Trace.Off) (pass Trace.Off) in
        let on_ = Float.min (pass level) (pass level) in
        (off, on_ /. off))
  in
  let rt = ratios Trace.Timing in
  let rf = ratios Trace.Full in
  let baseline = median (Array.map fst (Array.append rt rf)) in
  let timing_ratio = median (Array.map snd rt) in
  let full_ratio = median (Array.map snd rf) in
  let t =
    Tbl.create
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right ]
      [ "recording level"; "pass (ms)"; "vs off" ]
  in
  List.iter
    (fun (name, r) ->
      Tbl.add_row t
        [
          name;
          Printf.sprintf "%.3f" (baseline *. r *. 1e3);
          Printf.sprintf "%.3fx" r;
        ])
    [ ("off", 1.); ("timing", timing_ratio); ("full", full_ratio) ];
  print_string (Tbl.render t);
  (* One instrumented pass for the latency profile and the event
     volume (events/dropped come from a Full pass). *)
  ignore (pass Trace.Full);
  let events = List.length (Trace.events ()) in
  let dropped = Trace.dropped () in
  let profile =
    List.filter
      (fun (_, h) -> Trace.Hist.count h > 0)
      (("query", Dlz_engine.Stats.query_hist ()) :: Trace.hist_rows ())
  in
  let row (name, h) =
    let module H = Trace.Hist in
    Jsonx.(
      Obj
        [ ("name", Str name); ("count", Int (H.count h));
          ("p50_ns", Float (H.percentile h 0.50));
          ("p90_ns", Float (H.percentile h 0.90));
          ("p99_ns", Float (H.percentile h 0.99));
          ("max_ns", Int (Int64.to_int (H.max_ns h)));
          ("total_ns", Int (Int64.to_int (H.total_ns h))) ])
  in
  let fields =
    Jsonx.
      [ ("workload", Str "corpus+paper-family");
        ("programs", Int (List.length progs)); ("pairs", Int pairs);
        ("off_pass_sec", Float baseline);
        ("timing_overhead", Float (timing_ratio -. 1.));
        ("full_overhead", Float (full_ratio -. 1.));
        ("target_overhead", Float 0.03); ("full_target_overhead", Float 0.06);
        ( "trace_mask",
          match Trace.mask () with
          | None -> Null
          | Some cats -> List (List.map (fun c -> Str c) cats) );
        ("events", Int events); ("dropped", Int dropped);
        (* Rendered now: the reset below empties the live histograms. *)
        ("latency_profile", List (List.map row profile)) ]
  in
  (* The profile pass left metrics behind; leave a clean slate. *)
  Dlz_engine.Engine.reset_metrics ();
  write_report "trace" fields

(* --- daemon throughput, overload, warm restart (BENCH_serve.json) --------- *)

(* The serve arm measures the daemon as deployed: a real listening
   socket, real worker domains, and a thread fleet of simulated
   clients hammering it through the framed protocol.  Four questions,
   one phase each:

   - capacity: sustained mixed-workload throughput and latency, with
     the server-side request histogram alongside the client-observed
     percentiles (the gap is framing, connection setup, and queueing);
   - trace overhead: the capacity phase repeated at Timing and Full
     recording — the service-shaped datapoint for the recorder
     overhead budget (ROADMAP item 2: overhead under a live load, not
     a tight loop);
   - warm restart: drain-snapshot a loaded server, restart from the
     snapshot, and show the restarted server answering from the
     disk-warmed cache (warm_hits > 0);
   - overload: one worker and a tiny queue under a large fleet —
     shedding must be explicit (counted refusals, not timeouts) and
     the accepted requests' server-side p99 must stay bounded by the
     per-request deadline. *)
let serve_report () =
  let module Serve = Dlz_driver.Serve in
  let module Server = Dlz_serve.Server in
  let module Metrics = Dlz_serve.Metrics in
  let with_server cfg f =
    match Server.start cfg with
    | Error m -> failwith ("bench serve: " ^ m)
    | Ok srv ->
        let r = f (Server.address srv) in
        Server.stop srv;
        let s = Server.join srv in
        (r, s, Server.metrics srv)
  in
  let base_cfg () =
    let cfg = Server.default_config (Dlz_serve.Addr.Tcp ("127.0.0.1", 0)) in
    {
      cfg with
      Server.workers = min 4 (Domain.recommended_domain_count ());
      queue_capacity = 256;
      request_timeout_ms = Some 1_000;
    }
  in
  let saved_level = Trace.level () in
  Fun.protect ~finally:(fun () -> Trace.set_level saved_level) @@ fun () ->
  (* Capacity: 1000 sessions of 4 mixed requests over 16 client
     threads.  The engine cache is reset while the server is down, so
     the phase includes the cold misses a fresh daemon would see. *)
  let capacity level =
    Dlz_engine.Engine.reset_metrics ();
    Trace.reset_hists ();
    Trace.set_level level;
    let rep, _, _ =
      with_server (base_cfg ()) (fun addr ->
          Serve.load_gen ~addr ~clients:16 ~sessions:1_000
            ~requests_per_session:4 ~workload:Serve.Mix ())
    in
    let h = Trace.hist "serve.request" in
    let p50 = Trace.Hist.percentile h 0.50 in
    let p99 = Trace.Hist.percentile h 0.99 in
    Trace.set_level Trace.Off;
    (rep, p50, p99)
  in
  let rep_t, srv_p50, srv_p99 = capacity Trace.Timing in
  let rep_f, _, _ = capacity Trace.Full in
  let rps_t = Serve.throughput rep_t in
  let rps_f = Serve.throughput rep_f in
  let full_overhead = if rps_t > 0. then 1. -. (rps_f /. rps_t) else 0. in
  (* Warm restart: load a server with the query workload, drain it
     (the snapshot rides the drain), reset every in-memory metric, and
     restart from the snapshot under the same load. *)
  let query_load addr =
    Serve.load_gen ~addr ~clients:8 ~sessions:200 ~requests_per_session:8
      ~workload:Serve.Query ()
  in
  let snap = Filename.temp_file "vic-bench-serve" ".snap" in
  Dlz_engine.Engine.reset_metrics ();
  let rep_cold, sum_cold, _ =
    with_server
      { (base_cfg ()) with Server.snapshot_save = Some snap }
      query_load
  in
  let snap_entries =
    match sum_cold.Server.sm_saved with Some (Ok n) -> n | _ -> 0
  in
  Dlz_engine.Engine.reset_metrics ();
  let rep_warm, sum_warm, _ =
    with_server
      { (base_cfg ()) with Server.snapshot_load = Some snap }
      query_load
  in
  let loaded_entries =
    match sum_warm.Server.sm_loaded with Some (Ok n) -> n | _ -> 0
  in
  let warm_hits = Dlz_engine.Stats.warm_hits Dlz_engine.Stats.global in
  (try Sys.remove snap with Sys_error _ -> ());
  (* Overload: 1 worker, queue of 2, a 32-thread fleet.  Most arrivals
     must be refused explicitly; the few admitted must still answer
     inside the per-request deadline. *)
  let deadline_ms = 500 in
  Dlz_engine.Engine.reset_metrics ();
  Trace.reset_hists ();
  Trace.set_level Trace.Timing;
  let rep_over, _, om =
    with_server
      {
        (base_cfg ()) with
        Server.workers = 1;
        queue_capacity = 2;
        request_timeout_ms = Some deadline_ms;
      }
      (fun addr ->
        Serve.load_gen ~addr ~clients:32 ~sessions:600
          ~requests_per_session:2 ~workload:Serve.Query
          ~timeout_ms:deadline_ms ())
  in
  let over_p99 = Trace.Hist.percentile (Trace.hist "serve.request") 0.99 in
  Trace.set_level Trace.Off;
  let shed = Atomic.get om.Metrics.shed in
  let arrivals = Atomic.get om.Metrics.accepted + shed in
  let shed_rate =
    if arrivals = 0 then 0. else float_of_int shed /. float_of_int arrivals
  in
  Dlz_engine.Engine.reset_metrics ();
  let t =
    Tbl.create
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "phase"; "ok"; "rps"; "p99 (client)"; "p99 (server)" ]
  in
  let msf ns = Printf.sprintf "%.2fms" (ns /. 1e6) in
  let p99 r = Trace.Hist.percentile r.Serve.lg_latency 0.99 in
  Tbl.add_row t
    [
      "capacity (timing)"; string_of_int rep_t.Serve.lg_ok;
      Printf.sprintf "%.0f" rps_t; msf (p99 rep_t);
      msf srv_p99;
    ];
  Tbl.add_row t
    [
      "capacity (full)"; string_of_int rep_f.Serve.lg_ok;
      Printf.sprintf "%.0f" rps_f; msf (p99 rep_f); "-";
    ];
  Tbl.add_row t
    [
      "warm restart"; string_of_int rep_warm.Serve.lg_ok;
      Printf.sprintf "%.0f" (Serve.throughput rep_warm);
      msf (p99 rep_warm); "-";
    ];
  Tbl.add_row t
    [
      "overload (1w/q2)"; string_of_int rep_over.Serve.lg_ok;
      Printf.sprintf "%.0f" (Serve.throughput rep_over);
      msf (p99 rep_over); msf over_p99;
    ];
  print_string (Tbl.render t);
  Printf.printf
    "full-trace overhead %.1f%%; warm restart loaded %d entries, %d warm \
     hits; overload shed %d/%d (%.0f%%), server p99 %.1fms vs %dms deadline\n"
    (full_overhead *. 100.) loaded_entries warm_hits shed
    arrivals (shed_rate *. 100.) (over_p99 /. 1e6) deadline_ms;
  let ns n = Jsonx.Int (Int64.to_int n) in
  write_report "serve"
    Jsonx.
      [ ("workload", Str "mix+query");
        ( "capacity",
          Obj
            [ ("sessions", Int 1000); ("requests", Int rep_t.Serve.lg_requests);
              ("ok", Int rep_t.Serve.lg_ok);
              ("degraded", Int rep_t.Serve.lg_degraded);
              ("shed", Int rep_t.Serve.lg_shed);
              ("transport", Int rep_t.Serve.lg_transport);
              ("throughput_rps", Float rps_t);
              ( "client_p50_ns",
                Float (Trace.Hist.percentile rep_t.Serve.lg_latency 0.50) );
              ("client_p99_ns", Float (p99 rep_t));
              ("server_p50_ns", Float srv_p50);
              ("server_p99_ns", Float srv_p99) ] );
        ( "trace_overhead",
          Obj
            [ ("timing_rps", Float rps_t); ("full_rps", Float rps_f);
              ("full_over_timing", Float full_overhead) ] );
        ( "warm_restart",
          Obj
            [ ("snapshot_entries", Int snap_entries);
              ("loaded_entries", Int loaded_entries);
              ("warm_hits", Int warm_hits);
              ("cold_ok", Int rep_cold.Serve.lg_ok);
              ("warm_ok", Int rep_warm.Serve.lg_ok);
              ("cold_elapsed_ns", ns rep_cold.Serve.lg_elapsed_ns);
              ("warm_elapsed_ns", ns rep_warm.Serve.lg_elapsed_ns) ] );
        ( "overload",
          Obj
            [ ("workers", Int 1); ("queue", Int 2);
              ("deadline_ms", Int deadline_ms); ("arrivals", Int arrivals);
              ("ok", Int rep_over.Serve.lg_ok); ("shed", Int shed);
              ("shed_rate", Float shed_rate); ("server_p99_ns", Float over_p99);
              ( "p99_within_deadline",
                Bool (over_p99 <= float_of_int deadline_ms *. 1e6) ) ] ) ]

(* --- differential oracle throughput (BENCH_oracle.json) -------------------- *)

(* How fast the cross-check harness grinds through cases: the mixed
   generated batch (every family) serially and at width 4, plus a
   corpus slice.  Throughput is what bounds how many random programs a
   fuzzing session can afford, so it is tracked like any other perf
   surface; the arm also re-asserts the zero-divergence acceptance bar
   on everything it runs. *)
let oracle_report () =
  let module Eqgen = Dlz_oracle.Eqgen in
  let module Differ = Dlz_oracle.Differ in
  let batch = Eqgen.all ~seed:1L ~count:600 in
  let corpus_slice =
    List.filteri (fun i _ -> i mod 5 = 0) (Eqgen.corpus ())
  in
  let measure ~jobs cases =
    let t0 = now_s () in
    let report = Differ.run ~jobs cases in
    let elapsed = now_s () -. t0 in
    let unsound = Differ.count_class report Differ.Unsound in
    let internal = Differ.count_class report Differ.Internal in
    if unsound > 0 || internal > 0 then
      failwith
        (Printf.sprintf
           "bench: differential sweep found %d UNSOUND / %d INTERNAL"
           unsound internal);
    (report, elapsed)
  in
  let rows =
    List.map
      (fun (name, jobs, cases) ->
        let report, elapsed = measure ~jobs cases in
        let checks = report.Differ.r_tally.Differ.t_checks in
        ( name,
          jobs,
          report.Differ.r_cases,
          checks,
          elapsed,
          if elapsed > 0. then float_of_int checks /. elapsed else 0. ))
      [
        ("mixed", 1, batch);
        ("mixed", 4, batch);
        ("corpus-slice", 4, corpus_slice);
      ]
  in
  let t =
    Tbl.create
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "workload"; "jobs"; "cases"; "checks"; "elapsed (s)"; "checks/sec" ]
  in
  List.iter
    (fun (name, jobs, cases, checks, elapsed, cps) ->
      Tbl.add_row t
        [
          name;
          string_of_int jobs;
          string_of_int cases;
          string_of_int checks;
          Printf.sprintf "%.3f" elapsed;
          Printf.sprintf "%.0f" cps;
        ])
    rows;
  print_string (Tbl.render t);
  let run (name, jobs, cases, checks, elapsed, cps) =
    Jsonx.(
      Obj
        [ ("workload", Str name); ("jobs", Int jobs); ("cases", Int cases);
          ("checks", Int checks); ("elapsed_sec", Float elapsed);
          ("checks_per_sec", Float cps); ("unsound", Int 0);
          ("internal", Int 0) ])
  in
  write_report "oracle"
    Jsonx.[ ("seed", Int 1); ("runs", List (List.map run rows)) ]

(* --- perf smoke gate (@perf-ci) ------------------------------------------- *)

(* A CI-sized slice of the parallel sweep: the reduced workload analyzed
   end-to-end at jobs=1 and jobs=4, best of two trials each.  On a
   multi-core host the gate fails when jobs=4 regresses below jobs=1
   (with 10% noise headroom) — the scheduler must never make parallel
   analysis slower than serial.  On a single-core host the comparison
   can only measure oversubscription, so the gate prints both numbers
   and passes with a note. *)
let perf_smoke () =
  let progs =
    [ family_prog ~depth:2 ~extent:10; family_prog ~depth:3 ~extent:10;
      fig3_prog; mhl_prog; ib_prog ]
  in
  let reps = 3 in
  let measure jobs =
    Dlz_engine.Engine.reset_metrics ();
    Dlz_base.Pool.with_pool ~domains:jobs (fun pool ->
        let t0 = now_s () in
        for _ = 1 to reps do
          List.iter (fun p -> ignore (An.deps_of_program ~pool p)) progs
        done;
        now_s () -. t0)
  in
  ignore (measure 1) (* warm-up: first-touch costs out of the window *);
  let t1 = Float.min (measure 1) (measure 1) in
  let t4 = Float.min (measure 4) (measure 4) in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "perf-smoke: cores=%d jobs1=%.4fs jobs4=%.4fs ratio=%.3fx\n"
    cores
    (Float.max t1 1e-9) (Float.max t4 1e-9)
    (if t4 > 0. then t1 /. t4 else 0.);
  if cores < 2 then
    print_endline
      "perf-smoke: PASS (single-core host: jobs=4 runs oversubscribed, \
       scaling not enforced)"
  else if t4 > t1 *. 1.10 then begin
    Printf.printf
      "perf-smoke: FAIL (jobs=4 is %.1f%% slower than jobs=1 on %d cores)\n"
      (((t4 /. t1) -. 1.) *. 100.)
      cores;
    exit 1
  end
  else print_endline "perf-smoke: PASS"

let run_oracle_only () =
  print_endline
    "== Differential oracle throughput (written to BENCH_oracle.json) ==";
  oracle_report ()

let run_trace_only () =
  print_endline "== Tracing overhead (written to BENCH_trace.json) ==";
  trace_report ()

let run_robustness_only () =
  print_endline
    "== Containment overhead (written to BENCH_robustness.json) ==";
  robustness_report ()

let run_parallel_only () =
  print_endline
    "== Parallel analysis scaling (written to BENCH_parallel.json) ==";
  parallel_report ()

let run_cache_only () =
  print_endline
    "== Warm-start snapshot speedup (written to BENCH_cache.json) ==";
  cache_report ()

let run_serve_only () =
  print_endline
    "== Daemon throughput, overload, warm restart (written to \
     BENCH_serve.json) ==";
  serve_report ()

let run_full () =
  print_endline "== Bechamel micro-benchmarks (one group per experiment) ==";
  print_results (benchmark ());
  print_newline ();
  print_endline "== Ablation: residue policy (DESIGN.md §4) ==";
  residue_ablation ();
  print_newline ();
  print_endline
    "== Precision on 400 random depth-3 linearized equations (E8) ==";
  precision_table ();
  print_newline ();
  print_endline "== FM constraint growth vs algorithm linearity (E8) ==";
  let t =
    Tbl.create
      ~aligns:[ Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "depth"; "vars"; "FM tightened rows"; "FM real rows" ]
  in
  List.iter
    (fun depth ->
      let eq = Workload.paper_family ~depth ~extent:10 ~shifted:true in
      let nvars, rows = Fm.system_of_equation eq in
      Tbl.add_row t
        [
          string_of_int depth;
          string_of_int (Depeq.nvars eq);
          string_of_int (Fm.eliminations Fm.Tightened ~nvars rows);
          string_of_int (Fm.eliminations Fm.Real ~nvars rows);
        ])
    e8_depths;
  print_string (Tbl.render t);
  print_newline ();
  run_parallel_only ();
  print_newline ();
  run_cache_only ();
  print_newline ();
  run_robustness_only ();
  print_newline ();
  run_trace_only ();
  print_newline ();
  run_oracle_only ();
  print_newline ();
  run_serve_only ()

let () =
  (* `dune exec bench/main.exe -- parallel` (or `-- robustness`,
     `-- trace`, `-- oracle`) regenerates one table alone, without the
     full Bechamel sweep. *)
  match Array.to_list Sys.argv with
  | _ :: "parallel" :: _ -> run_parallel_only ()
  | _ :: "cache" :: _ -> run_cache_only ()
  | _ :: "robustness" :: _ -> run_robustness_only ()
  | _ :: "trace" :: _ -> run_trace_only ()
  | _ :: "oracle" :: _ -> run_oracle_only ()
  | _ :: "serve" :: _ -> run_serve_only ()
  | _ :: "perf-smoke" :: _ -> perf_smoke ()
  | _ :: [] -> run_full ()
  | _ ->
      prerr_endline
        "usage: bench/main.exe [parallel|cache|robustness|trace|oracle|\
         serve|perf-smoke]";
      exit 2
