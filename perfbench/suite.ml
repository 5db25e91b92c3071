(* The benchmark suite: four workloads over the dependence-analysis
   stack.  Each run prints every metric by name with its unit, checks
   that the outputs are correct, and ends with one JSON result line.

     suite.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
       one workload in this process
     suite.exe [--seed N] [--seconds S] [--trace 0|1]
       all four, each in its own child process
     suite.exe --self-check
     suite.exe --workload W [--seed N] --setup-only
       one set-up, for the median [setup_s] of a run

   [--trace 0] reports the end-to-end metrics; [--trace 1] is a separate
   run that times each layer from outside and reports the per-layer
   metrics.  Run it from the repository root: the corpus workloads read
   corpus/polybench.  See README.md for the metrics and what should
   move them. *)

open Harness

(* Taken as early as this program's own code runs: a set-up is timed
   from here, so it includes process start-up. *)
let started = now ()

(* Each workload, and whether its set-up time is corrected to nominal
   host speed (see [Hostspeed]) like its operations.  serve-mix's is
   not: its warm-up mostly waits on TCP timers, which do not run slower
   when the host does, and the workload corrects only its single-frame
   requests itself. *)
let workloads =
  [
    ("bulk-cold", (Corpus_bulk.setup ~warm:false, true));
    ("bulk-warm", (Corpus_bulk.setup ~warm:true, true));
    ("query-stream", (Query_stream.setup, true));
    ("serve-mix", (Serve_mix.setup, false));
  ]

(* Set-ups per run: [min_setups], and more, up to [max_setups], while
   they have taken less than [setup_budget_s] in all, so a set-up of a
   few milliseconds still gets a steady median.  [setup_s] is their
   median. *)
let min_setups = 5
let max_setups = 25
let setup_budget_s = 0.5

(* One set-up in this process, and the time from the process starting
   to its end, at nominal host speed where the workload's times are. *)
let set_up_once (setup, speed) ~seed =
  Dlz_engine.Chaos.set_current None;
  Trace.set_level Trace.Off;
  let inst = setup ~seed in
  let s = now () -. started in
  (inst, if speed then s *. Hostspeed.factor (Hostspeed.meter ()) else s)

(* The time of one more set-up, in a fresh process running this
   executable with [--setup-only]. *)
let set_up_child name ~seed =
  let args =
    [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed; "--setup-only" |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt line) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith ("set-up in a child process failed: " ^ name)

(* This process's set-up, then the others each in a fresh process, so
   that repeating the set-up leaves nothing behind in the heap or the
   [peak_rss_mb] of the process that measures. *)
let set_up name workload ~seed =
  let inst, own = set_up_once workload ~seed in
  let rec more times total =
    let k = List.length times in
    if k >= max_setups || (k >= min_setups && total >= setup_budget_s) then times
    else
      let s = set_up_child name ~seed in
      more (s :: times) (total +. s)
  in
  (inst, Array.of_list (more [ own ] own))

(* Peak resident set size of this process, from the kernel's VmHWM. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        let l = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> fi kb /. 1024.)
        else find ()
      in
      find ())

let end_to_end (m : measured) ~setups ~speed =
  let n = Array.length m.latency_ms in
  let p, tail = Stats.tail m.latency_ms 99. in
  let at = if speed then ", at nominal host speed" else "" in
  let of_n = if n < m.ops then Printf.sprintf ", a uniform sample of %d" m.ops else "" in
  [
    metric "throughput_ops_s" "ops/s" (ratio (fi m.ops) m.busy_s)
      ~note:(Printf.sprintf "%d ops in %.3f s%s" m.ops m.busy_s at);
    metric "latency_p50_ms" "ms" (Stats.median m.latency_ms)
      ~note:(Printf.sprintf "n=%d%s%s" n of_n at);
    metric "latency_p99_ms" "ms" tail
      ~note:(Printf.sprintf "p%g of n=%d%s%s" p n of_n at);
    metric "setup_s" "s" (Stats.median setups)
      ~note:
        (Printf.sprintf "median of %d set-ups, each from its process's start%s"
           (Array.length setups) at);
    metric "peak_rss_mb" "MB" (peak_rss_mb ()) ~note:"VmHWM";
  ]

let json_line ~correct (m : measured) metrics =
  let value x = if Float.is_finite x.value then x.value else 0. in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    m.attempted m.failed
    (String.concat ","
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" x.name (value x) x.unit)
          metrics))

let print_metric x = Printf.printf "  %-34s %14.6g %-6s %s\n" x.name x.value x.unit x.note

(* One workload in this process: set up, measure until the deadline,
   check, tear down, report.  Returns whether every check passed. *)
let run_one name workload ~seed ~seconds ~trace =
  let inst, setups =
    if trace then (fst (set_up_once workload ~seed), [||]) else set_up name workload ~seed
  in
  let until = now () +. seconds in
  let m, shown, reported =
    if trace then begin
      let m, layers = inst.traced ~until in
      let find n =
        match List.find_opt (fun x -> x.name = n) layers with
        | Some x -> x
        | None -> failwith ("per-layer metric missing: " ^ n)
      in
      (m, layers, List.map find (per_layer_names ()))
    end
    else
      let m = inst.run ~until in
      let e2e = end_to_end m ~setups ~speed:(snd workload) in
      (m, e2e, e2e)
  in
  let checks = inst.checks () in
  inst.teardown ();
  let correct =
    m.attempted > 0
    && List.for_all (fun x -> Float.is_finite x.value) reported
    && List.for_all (fun c -> c.ok) checks
  in
  Printf.printf "%s  seed=%d seconds=%g trace=%d\n" name seed seconds (Bool.to_int trace);
  List.iter print_metric shown;
  if not trace then begin
    print_metric
      (metric "fail_ratio" "ratio"
         (ratio (fi m.failed) (fi m.attempted))
         ~note:(Printf.sprintf "%d failed / %d attempted" m.failed m.attempted));
    print_metric
      (metric "host_speed_factor" "ratio" m.speed
         ~note:"mean factor the measured times were multiplied by; 1 = uncorrected")
  end;
  List.iter
    (fun c -> Printf.printf "  check %-11s %-6s %s\n" c.what (if c.ok then "ok" else "FAILED") c.detail)
    checks;
  print_endline (json_line ~correct m reported);
  correct

(* Every workload, each in a child process running this executable, so
   that memory and GC state are per workload.  Children's output passes
   through; the last line collects their result lines. *)
let run_all ~seed ~seconds ~trace =
  let results =
    List.map
      (fun (name, _) ->
        let args =
          [|
            Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%.17g" seconds; "--trace"; string_of_int (Bool.to_int trace);
          |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let last = ref "null" in
        (try
           while true do
             let l = input_line ic in
             print_endline l;
             last := l
           done
         with End_of_file -> ());
        let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        (name, ok, if ok then !last else "null"))
      workloads
  in
  let ok = List.for_all (fun (_, ok, _) -> ok) results in
  Printf.printf "{\"correct\":%b,\"workloads\":{%s}}\n" ok
    (String.concat "," (List.map (fun (n, _, l) -> Printf.sprintf "\"%s\":%s" n l) results));
  ok

(* The statistics' rank rule and the seeded inputs' determinism. *)
let self_check () =
  let ok = ref true in
  let expect what cond =
    Printf.printf "  %-58s %s\n" what (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  let a = Array.init 1000 (fun i -> fi (1000 - i)) in
  expect "1000 samples: p99 is the 990th, 10 beyond" (Stats.tail a 99. = (99., 990.));
  expect "500 samples: p99 has 5 beyond, p98 is reported" (Stats.tail (Array.sub a 500 500) 99. = (98., 490.));
  expect "15 samples: no tail has 10 beyond, the median is reported"
    (Stats.tail (Array.sub a 985 15) 99. = (50., 8.));
  expect "median of 4 samples is the midpoint" (Stats.median [| 4.; 1.; 3.; 2. |] = 2.5);
  expect "quartiles of 1..1000" (Stats.quartiles a = (250., 500.5, 750.));
  let r = Stats.Samples.create 4 in
  List.iter (Stats.Samples.add r) [ 1.; 2.; 3. ];
  expect "reservoir below capacity keeps every sample" (Stats.Samples.to_array r = [| 1.; 2.; 3. |]);
  for i = 4 to 100 do Stats.Samples.add r (fi i) done;
  expect "reservoir above capacity keeps its capacity" (Array.length (Stats.Samples.to_array r) = 4);
  let q seed = Inputs.digest_cases (Inputs.query_cases ~seed) in
  let s seed =
    let warmup, timed = Inputs.serve_requests ~seed in
    Inputs.digest_requests (Array.append warmup timed)
  in
  expect "query-stream: same seed, same digest" (q 1 = q 1);
  expect "query-stream: another seed, another digest" (q 1 <> q 2);
  expect "serve-mix: same seed, same digest" (s 1 = s 1);
  expect "serve-mix: another seed, another digest" (s 1 <> s 2);
  print_endline (if !ok then "self-check ok" else "self-check FAILED");
  !ok

let usage =
  "suite.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--self-check]\n\
   Workloads: " ^ String.concat ", " (List.map fst workloads)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 15. in
  let trace = ref 0 and check = ref false and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "W run one workload in this process");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured time per workload (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0, default) or per-layer metrics (1)");
      ("--self-check", Arg.Set check, " check the statistics and the seeded inputs, then exit");
      ( "--setup-only",
        Arg.Set setup_only,
        " set the workload up once, print the set-up time in seconds, exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("suite: " ^ msg);
    exit 2
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds > 0.) then fail "--seconds must be positive";
  if not (Sys.file_exists Inputs.golden_file) then
    fail ("run from the repository root: " ^ Inputs.golden_file ^ " not found");
  let trace = !trace = 1 in
  let ok =
    if !check then self_check ()
    else
      match !workload with
      | None -> run_all ~seed:!seed ~seconds:!seconds ~trace
      | Some w -> (
          match List.assoc_opt w workloads with
          | Some workload when !setup_only ->
              let inst, s = set_up_once workload ~seed:!seed in
              inst.teardown ();
              Printf.printf "%.17g\n" s;
              true
          | Some workload -> run_one w workload ~seed:!seed ~seconds:!seconds ~trace
          | None -> fail ("unknown workload: " ^ w ^ "\n" ^ usage))
  in
  exit (if ok then 0 else 1)
