(* Plumbing shared by the workloads: the clock, the result types each
   workload fills in, the layer timer that traced runs wrap library
   calls with, engine counter deltas, and the per-strategy cost probe.
   Nothing here reaches inside the library: every layer is timed from
   outside, around calls to its public functions. *)

module Trace = Dlz_base.Trace
module Budget = Dlz_base.Budget
module Assume = Dlz_symbolic.Assume
module Problem = Dlz_deptest.Problem
module Estats = Dlz_engine.Stats
module Strategy = Dlz_engine.Strategy
module Cascade = Dlz_engine.Cascade
module Query = Dlz_engine.Query

let now_ns = Trace.now_ns
let now () = Int64.to_float (now_ns ()) /. 1e9
let since_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

type metric = { name : string; value : float; unit : string; note : string }

let metric ?(note = "") name unit value = { name; value; unit; note }

type check = { what : string; ok : bool; detail : string }

(* The end-to-end result of a run: operations completed inside timed
   regions, the time those regions took, one latency sample per
   operation (ms), and the attempted/failed operation counts.  Times are
   at nominal host speed where the workload corrects them; [speed] is
   the mean factor they were multiplied by (1 where none was). *)
type measured = {
  ops : int;
  busy_s : float;
  latency_ms : float array;
  attempted : int;
  failed : int;
  speed : float;
}

type instance = {
  run : until:float -> measured;  (** The untraced timed loop. *)
  traced : until:float -> measured * metric list;
      (** The traced run: its own operation counts and every per-layer
          metric of the workload. *)
  checks : unit -> check list;
      (** Correctness of every output produced so far. *)
  teardown : unit -> unit;
}

(* Latency reservoir size: p99 keeps thousands of samples beyond it. *)
let sample_cap = 1 lsl 18

(* {1 Layer timer} *)

(* Accumulated nanoseconds per layer name.  A timer made with
   [~on:false] calls straight through, so an untraced replay runs the
   same code path minus the clock reads: the pair gives the tracing
   overhead. *)
module Layers = struct
  type t = { on : bool; tbl : (string, float ref) Hashtbl.t }

  let create ~on = { on; tbl = Hashtbl.create 16 }

  let add t name ns =
    match Hashtbl.find_opt t.tbl name with
    | Some r -> r := !r +. ns
    | None -> Hashtbl.add t.tbl name (ref ns)

  let span t name f =
    if not t.on then f ()
    else
      let t0 = now_ns () in
      let r = f () in
      add t name (since_ns t0);
      r

  let ns t name = match Hashtbl.find_opt t.tbl name with Some r -> !r | None -> 0.
end

(* {1 Engine counters} *)

type counters = {
  queries : int;
  hits : int;
  misses : int;
  uncacheable : int;
  alloc : int;
  hit_alloc : int;
  degraded : int;
}

let zero_counters =
  { queries = 0; hits = 0; misses = 0; uncacheable = 0; alloc = 0; hit_alloc = 0; degraded = 0 }

let counters () =
  let s = Estats.global in
  {
    queries = Estats.queries s;
    hits = Estats.cache_hits s;
    misses = Estats.cache_misses s;
    uncacheable = Estats.cache_uncacheable s;
    alloc = Estats.alloc_words s;
    hit_alloc = Estats.hit_alloc_words s;
    degraded = Estats.degradations s;
  }

(* Engine counter metrics over the interval [before, after]; [pairs] is
   the number of distinct dependence pairs the interval asked about. *)
let engine_metrics ~pairs before after =
  let d f = fi (f after - f before) in
  let queries = d (fun c -> c.queries) and hits = d (fun c -> c.hits) in
  [
    metric "engine.hit_ratio" "ratio" (ratio hits (hits +. d (fun c -> c.misses)));
    metric "engine.uncacheable_ratio" "ratio"
      (ratio (d (fun c -> c.uncacheable)) queries);
    metric "engine.allocs_per_query" "words" (ratio (d (fun c -> c.alloc)) queries);
    metric "engine.allocs_per_hit" "words" (ratio (d (fun c -> c.hit_alloc)) hits);
    metric "engine.degraded_ratio" "ratio" (ratio (d (fun c -> c.degraded)) queries);
    metric "engine.queries_per_pair" "ratio" (ratio queries (fi pairs));
    metric "engine.misses" "count" (d (fun c -> c.misses));
  ]

(* {1 Layer shares} *)

(* The layers every workload reports a share of its wall time for,
   zero where the workload does not pass through them, and the
   remainder no layer accounts for. *)
let share_layers =
  [ "frontend"; "passes"; "ir"; "engine"; "analyze"; "vec"; "serve.codec"; "serve.wire" ]

let shares ~wall_ns (per_layer : (string * float) list) =
  let total = List.fold_left (fun acc (_, ns) -> acc +. ns) 0. per_layer in
  List.map
    (fun l ->
      let ns = Option.value (List.assoc_opt l per_layer) ~default:0. in
      metric (l ^ ".share") "ratio" (ratio ns wall_ns))
    share_layers
  @ [ metric "driver.unaccounted_share" "ratio" (1. -. ratio total wall_ns) ]

let trace_overhead ~traced ~untraced =
  metric "trace_overhead" "ratio" (ratio traced untraced -. 1.)

(* {1 Oracle} *)

module Oracle = Dlz_oracle.Oracle
module Differ = Dlz_oracle.Differ

(* Outcome counts of checking results against the brute-force oracle,
   with the first violation's detail. *)
type tally = {
  mutable verified : int;
  mutable inconclusive : int;
  mutable violated : int;
  mutable first : string option;
}

let tally () = { verified = 0; inconclusive = 0; violated = 0; first = None }

(* Checks a dependence claim (verdict, direction vectors, constant
   distances) on the numeric [ground] problem, within the differential
   oracle's point limit and fuel. *)
let verify t ~id ground ~verdict ~dirvecs ~distances =
  match
    Oracle.verify
      ~budget:(Budget.create ~fuel:Differ.default_fuel ())
      ~limit:Differ.default_limit ground
      ~verdict:(Dlz_deptest.Verdict.conservative verdict)
      ~dirvecs ~distances
  with
  | Oracle.Consistent -> t.verified <- t.verified + 1
  | Oracle.Inconclusive _ -> t.inconclusive <- t.inconclusive + 1
  | Oracle.Violated v ->
      t.violated <- t.violated + 1;
      if t.first = None then t.first <- Some (id ^ ": " ^ v.Oracle.v_detail)

(* [verify] on an engine result; symbolic distances are not checked. *)
let verify_result t ~id ground (r : Strategy.result) =
  verify t ~id ground ~verdict:r.Strategy.verdict ~dirvecs:r.Strategy.dirvecs
    ~distances:
      (List.filter_map
         (fun (l, p) -> Option.map (fun c -> (l, c)) (Dlz_symbolic.Poly.to_const p))
         r.Strategy.distances)

let tally_check what t =
  {
    what;
    ok = t.violated = 0;
    detail =
      Printf.sprintf "%d verified, %d inconclusive, %d violations%s" t.verified
        t.inconclusive t.violated
        (match t.first with Some d -> "; first: " ^ d | None -> "");
  }

(* {1 Engine probe} *)

(* Budget of one strategy run in the probe: a fuel cap and a 2 ms
   deadline, so the few pathological cases of the exponential
   strategies (omega takes seconds on some) cannot dominate. *)
let probe_budget () = Budget.create ~fuel:20_000 ~timeout_ms:2 ()

(* A call faster than [fast_ns] is timed again as the mean of [batch]
   back-to-back calls, which keeps sub-microsecond strategies above the
   clock's resolution. *)
let batch = 4
let fast_ns = 20_000.

let mean_call_us cases f =
  let t0 = now_ns () in
  for _ = 1 to batch do
    Array.iter (fun (env, p) -> ignore (Sys.opaque_identity (f env p))) cases
  done;
  ratio (since_ns t0) (fi (batch * Array.length cases)) /. 1e3

(* One strategy on one problem, as the cascade runs it: applicability
   screen, then the run.  Returns the time per call and whether it
   decided. *)
let strategy_sample (s : Strategy.t) env p =
  let call budget =
    s.Strategy.applies ~env p
    &&
    match s.Strategy.run ~env ~budget p with
    | Strategy.Decided _ -> true
    | Strategy.Pass -> false
    | exception ((Out_of_memory | Sys.Break) as e) -> raise e
    | exception _ -> false
  in
  let b = probe_budget () in
  let t0 = now_ns () in
  let decided = call b in
  let ns = since_ns t0 in
  if ns >= fast_ns then (ns, decided)
  else
    let bs = Array.init batch (fun _ -> probe_budget ()) in
    let t0 = now_ns () in
    Array.iter (fun b -> ignore (call b)) bs;
    (since_ns t0 /. fi batch, decided)

(* Cost of the engine's own layers on [cases]: canonical key, and one
   uncached cascade solve; then every registered strategy run directly,
   the paper's delinearize vs banerjee vs fm comparison on the
   workload's own problem mix. *)
let probe cases =
  let scratch = Estats.create () in
  let key_us =
    mean_call_us cases (fun _ p -> Query.key_of ~cascade:Cascade.delin.Cascade.name p)
  in
  let cascade_us =
    mean_call_us cases (fun env p -> Cascade.run ~stats:scratch ~env Cascade.delin p)
  in
  let strategy (s : Strategy.t) =
    let runs = Array.map (fun (env, p) -> strategy_sample s env p) cases in
    let decided = Array.fold_left (fun n (_, d) -> if d then n + 1 else n) 0 runs in
    let n = s.Strategy.name in
    [
      metric ("strategy." ^ n ^ ".p50_ns") "ns" (Stats.median (Array.map fst runs));
      metric ("strategy." ^ n ^ ".decide_ratio") "ratio"
        (ratio (fi decided) (fi (Array.length cases)));
    ]
  in
  [ metric "engine.key_us" "us" key_us; metric "engine.cascade_us" "us" cascade_us ]
  @ List.concat_map strategy (Dlz_engine.Registry.all ())

(* The per-layer metrics every workload's traced run reports, in the
   order they are printed; [strategy.*] entries follow for each
   registered strategy.  BENCHMARK.json lists the same names. *)
let per_layer_names () =
  [
    "engine.key_us";
    "engine.query_us";
    "engine.cascade_us";
    "engine.hit_ratio";
    "engine.uncacheable_ratio";
    "engine.allocs_per_query";
    "engine.allocs_per_hit";
    "engine.degraded_ratio";
    "engine.queries_per_pair";
  ]
  @ List.map (fun l -> l ^ ".share") share_layers
  @ [ "driver.unaccounted_share"; "trace_overhead" ]
  @ List.concat_map
      (fun (s : Strategy.t) ->
        let n = s.Strategy.name in
        [ "strategy." ^ n ^ ".p50_ns"; "strategy." ^ n ^ ".decide_ratio" ])
      (Dlz_engine.Registry.all ())
