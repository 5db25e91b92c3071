(* Tests for the observability plane (lib/obs): the metric registry,
   the Prometheus text exposition writer, the versioned JSON snapshot
   codec, and the JSON codec every writer prints through.

   Determinism is the contract under test: the same metric state must
   render to byte-identical text regardless of registration order,
   scrape count, or how many domains did the recording — the registry
   sorts by (name, labels) and the writers are value-deterministic.
   Every assertion here is structural or byte-exact and independent of
   scheduling, so the suite is injection-proof by design (@matrix-ci
   runs it under a chaos seed and at width 2).

   Collectors registered by this suite use a "t_..." name prefix and
   are unregistered on exit, so the process-wide collectors the linked
   libraries install (trace/pool/engine/serve) are never disturbed. *)

module Trace = Dlz_base.Trace
module Hist = Trace.Hist
module Registry = Dlz_obs.Registry
module Prom = Dlz_obs.Prom
module Snap = Dlz_obs.Snap
module Jsonx = Dlz_obs.Jsonx

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Prometheus exposition ------------------------------------------------ *)

(* The full golden rendering: families in name order, one HELP/TYPE
   header per family, label sets in (name, labels) order within a
   family — byte-for-byte. *)
let test_prom_golden () =
  let samples =
    [
      (* Deliberately out of order: the writer must sort. *)
      Registry.sample ~help:"requests served" "t_requests_total"
        (Registry.Counter 3);
      Registry.sample ~help:"queue depth"
        ~labels:[ ("q", "b") ]
        "t_depth" (Registry.Gauge 2.5);
      Registry.sample ~labels:[ ("q", "a") ] "t_depth" (Registry.Gauge 1.);
    ]
  in
  check_str "golden exposition"
    "# HELP t_depth queue depth\n\
     # TYPE t_depth gauge\n\
     t_depth{q=\"a\"} 1\n\
     t_depth{q=\"b\"} 2.5\n\
     # HELP t_requests_total requests served\n\
     # TYPE t_requests_total counter\n\
     t_requests_total 3\n"
    (Prom.to_string samples)

let test_prom_escaping () =
  let samples =
    [
      Registry.sample ~help:"weird \\ help\nline"
        ~labels:[ ("bad-label!", "va\\l\"ue\nx") ]
        "t.bad name" (Registry.Counter 1);
    ]
  in
  check_str "names sanitized, label values escaped"
    "# HELP t_bad_name weird \\\\ help\\nline\n\
     # TYPE t_bad_name counter\n\
     t_bad_name{bad_label_=\"va\\\\l\\\"ue\\nx\"} 1\n"
    (Prom.to_string samples);
  check_str "leading digit sanitized" "_lives" (Prom.sanitize_name "9lives");
  check_str "empty name sanitized" "_" (Prom.sanitize_name "");
  check_str "integral floats print bare" "42" (Jsonx.number 42.);
  check_str "fractional floats print %.9g" "1512.5" (Jsonx.number 1512.5)

(* Histogram exposition: cumulative non-decreasing buckets, an
   explicit +Inf equal to the count, _sum/_count lines, and derived
   _p50/_p99 gauge families. *)
let test_prom_histogram () =
  let h = Hist.create () in
  List.iter
    (fun ns -> Hist.observe h (Int64.of_int ns))
    [ 10; 100; 100; 3_000; 50_000; 1_000_000 ];
  let snap = Hist.snapshot h in
  check_int "snapshot count" 6 snap.Registry.h_count;
  Alcotest.(check int64) "snapshot sum" 1_053_210L snap.Registry.h_sum_ns;
  (* Cumulativity of the snapshot itself. *)
  let rec cumulative last = function
    | [] -> ()
    | (le, cum) :: rest ->
        check_bool
          (Printf.sprintf "bucket le=%Ld non-decreasing" le)
          true (cum >= last);
        check_bool "bucket bounded by count" true
          (cum <= snap.Registry.h_count);
        cumulative cum rest
  in
  cumulative 0 snap.Registry.h_buckets;
  check_bool "buckets reach the max observation" true
    (match List.rev snap.Registry.h_buckets with
    | (le, cum) :: _ ->
        Int64.compare le snap.Registry.h_max_ns >= 0
        && cum = snap.Registry.h_count
    | [] -> false);
  (* And of the rendered text. *)
  let text =
    Prom.to_string
      [
        Registry.sample ~help:"lat"
          ~labels:[ ("client", "a"); ("verb", "query") ]
          "t_req_ns" (Registry.Hist snap);
      ]
  in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "+Inf bucket = count" true
    (has "t_req_ns_bucket{client=\"a\",verb=\"query\",le=\"+Inf\"} 6");
  check_bool "_sum rendered" true
    (has "t_req_ns_sum{client=\"a\",verb=\"query\"} 1053210");
  check_bool "_count rendered" true
    (has "t_req_ns_count{client=\"a\",verb=\"query\"} 6");
  check_bool "derived p50 gauge family" true (has "# TYPE t_req_ns_p50 gauge");
  check_bool "derived p99 gauge family" true (has "# TYPE t_req_ns_p99 gauge");
  (* Every _bucket line's value is non-decreasing down the text. *)
  let last = ref (-1) in
  let prefix = "t_req_ns_bucket{" in
  let plen = String.length prefix in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match String.index_opt line '}' with
         | Some i when String.length line > plen && String.sub line 0 plen = prefix ->
             let v =
               int_of_string
                 (String.trim
                    (String.sub line (i + 1) (String.length line - i - 1)))
             in
             check_bool "rendered buckets cumulative" true (v >= !last);
             last := v
         | _ -> ())

(* The N-domain determinism claim: a histogram filled concurrently by
   [Width.jobs] domains (each recording the same fixed multiset) must
   render byte-identically to one filled serially with the identical
   total multiset — shards change, state does not. *)
let test_prom_jobs_identical () =
  let obs = [ 7; 120; 120; 999; 31_000; 31_000; 250_000 ] in
  let serial = Hist.create () in
  for _ = 1 to Width.jobs do
    List.iter (fun ns -> Hist.observe serial (Int64.of_int ns)) obs
  done;
  let parallel = Hist.create () in
  let doms =
    List.init Width.jobs (fun _ ->
        Domain.spawn (fun () ->
            List.iter (fun ns -> Hist.observe parallel (Int64.of_int ns)) obs))
  in
  List.iter Domain.join doms;
  let render h =
    Prom.to_string
      [ Registry.sample ~help:"lat" "t_par_ns" (Registry.Hist (Hist.snapshot h)) ]
  in
  check_str "parallel fill renders byte-identical to serial" (render serial)
    (render parallel);
  (* Scrape idempotence: rendering twice is byte-identical. *)
  check_str "re-render byte-identical" (render parallel) (render parallel)

(* --- Snap codec ----------------------------------------------------------- *)

let test_snap_shape () =
  let h = Hist.create () in
  Hist.observe h 1500L;
  let samples =
    [
      Registry.sample ~help:"c" "t_c" (Registry.Counter 7);
      Registry.sample ~labels:[ ("k", "v\"w") ] "t_g" (Registry.Gauge 1.5);
      Registry.sample "t_h" (Registry.Hist (Hist.snapshot h));
      Registry.sample "t_nan" (Registry.Gauge Float.nan);
    ]
  in
  let line = Jsonx.to_string (Snap.to_json samples) in
  check_bool "one line, NDJSON-ready" true (not (String.contains line '\n'));
  (* The rendered line must parse back as JSON. *)
  let j =
    match Jsonx.parse line with
    | Ok j -> j
    | Error m -> Alcotest.fail ("snap output does not parse: " ^ m)
  in
  let member k =
    match Jsonx.member k j with
    | Some v -> v
    | None -> Alcotest.failf "missing %S" k
  in
  check_int "version field" Snap.version
    (Option.get (Jsonx.to_int (member "version")));
  let metrics = Option.get (Jsonx.to_list (member "metrics")) in
  check_int "all samples present" (List.length samples) (List.length metrics);
  let kind_of m = Option.get (Option.bind (Jsonx.member "kind" m) Jsonx.to_str) in
  check_str "counter kind" "counter" (kind_of (List.nth metrics 0));
  check_str "gauge kind" "gauge" (kind_of (List.nth metrics 1));
  check_str "histogram kind" "histogram" (kind_of (List.nth metrics 2));
  (* A NaN gauge degrades to 0 instead of corrupting the stream. *)
  (match Jsonx.member "value" (List.nth metrics 3) with
  | Some v ->
      check_int "NaN gauge degrades to 0" 0 (Option.get (Jsonx.to_int v))
  | None -> Alcotest.fail "NaN gauge lost its value field")

(* --- JSON codec ------------------------------------------------------------- *)

(* A fixed registry state covering every number shape (integral,
   fractional, huge, negative, non-finite) and every escape class. *)
let fixed_samples =
  let hist =
    {
      Registry.h_count = 3;
      h_sum_ns = 4242L;
      h_max_ns = 3000L;
      h_p50_ns = 1386.75768;
      h_p99_ns = 2999.5;
      h_buckets = [ (1024L, 1); (2048L, 2); (4096L, 3) ];
    }
  in
  [
    Registry.sample ~help:"requests"
      ~labels:[ ("client", "a\"b\\c\n\001") ]
      "t_req_total" (Registry.Counter 5);
    Registry.sample ~help:"depth" "t_depth" (Registry.Gauge 2.5);
    Registry.sample "t_big" (Registry.Gauge 1e20);
    Registry.sample "t_neg" (Registry.Gauge (-3.));
    Registry.sample "t_frac" (Registry.Gauge (1. /. 3.));
    Registry.sample "t_inf" (Registry.Gauge Float.infinity);
    Registry.sample ~help:"latency"
      ~labels:[ ("verb", "query") ]
      "t_lat_ns" (Registry.Hist hist);
  ]

(* Both renderings of the fixed state, byte for byte as the metrics
   plane has always printed them. *)
let test_fixed_state_golden () =
  check_str "snap line"
    {|{"version":1,"metrics":[{"name":"t_req_total","labels":{"client":"a\"b\\c\n\u0001"},"kind":"counter","value":5},{"name":"t_depth","labels":{},"kind":"gauge","value":2.5},{"name":"t_big","labels":{},"kind":"gauge","value":1e+20},{"name":"t_neg","labels":{},"kind":"gauge","value":-3},{"name":"t_frac","labels":{},"kind":"gauge","value":0.333333333},{"name":"t_inf","labels":{},"kind":"gauge","value":0},{"name":"t_lat_ns","labels":{"verb":"query"},"kind":"histogram","count":3,"sum_ns":4242,"max_ns":3000,"p50_ns":1386.75768,"p99_ns":2999.5,"buckets":[[1024,1],[2048,2],[4096,3]]}]}|}
    (Jsonx.to_string (Snap.to_json fixed_samples));
  check_str "prometheus text"
    "# HELP t_big t_big\n\
     # TYPE t_big gauge\n\
     t_big 1e+20\n\
     # HELP t_depth depth\n\
     # TYPE t_depth gauge\n\
     t_depth 2.5\n\
     # HELP t_frac t_frac\n\
     # TYPE t_frac gauge\n\
     t_frac 0.333333333\n\
     # HELP t_inf t_inf\n\
     # TYPE t_inf gauge\n\
     t_inf inf\n\
     # HELP t_lat_ns latency\n\
     # TYPE t_lat_ns histogram\n\
     t_lat_ns_bucket{verb=\"query\",le=\"1024\"} 1\n\
     t_lat_ns_bucket{verb=\"query\",le=\"2048\"} 2\n\
     t_lat_ns_bucket{verb=\"query\",le=\"4096\"} 3\n\
     t_lat_ns_bucket{verb=\"query\",le=\"+Inf\"} 3\n\
     t_lat_ns_sum{verb=\"query\"} 4242\n\
     t_lat_ns_count{verb=\"query\"} 3\n\
     # HELP t_lat_ns_p50 p50 of t_lat_ns\n\
     # TYPE t_lat_ns_p50 gauge\n\
     t_lat_ns_p50{verb=\"query\"} 1386.75768\n\
     # HELP t_lat_ns_p99 p99 of t_lat_ns\n\
     # TYPE t_lat_ns_p99 gauge\n\
     t_lat_ns_p99{verb=\"query\"} 2999.5\n\
     # HELP t_neg t_neg\n\
     # TYPE t_neg gauge\n\
     t_neg -3\n\
     # HELP t_req_total requests\n\
     # TYPE t_req_total counter\n\
     t_req_total{client=\"a\\\"b\\\\c\\n\001\"} 5\n"
    (Prom.to_string fixed_samples)

(* The --stats rendering of the same fixed state: every sample in
   registry order, padded columns, histograms in their own table. *)
let test_text_golden () =
  check_str "text view"
    "t_big                                   1e+20\n\
     t_depth                                   2.5\n\
     t_frac                            0.333333333\n\
     t_inf                                     inf\n\
     t_neg                                      -3\n\
     t_req_total{client=\"a\\\"b\\\\c\\n\001\"}            5\n\
     \n\
     histogram               count    p50    p99    max  total\n\
     t_lat_ns{verb=\"query\"}      3  1.4us  3.0us  3.0us  4.2us\n"
    (Dlz_obs.Text.to_string fixed_samples)

(* --sort reorders rows within one family only: counter values for
   [By_attempts], histogram totals for [By_time]; families stay in
   name order. *)
let test_text_sort () =
  let hist sum =
    Registry.Hist
      {
        Registry.h_count = 1;
        h_sum_ns = sum;
        h_max_ns = sum;
        h_p50_ns = Int64.to_float sum;
        h_p99_ns = Int64.to_float sum;
        h_buckets = [];
      }
  in
  let samples =
    [
      Registry.sample ~labels:[ ("s", "a") ] "t_att" (Registry.Counter 1);
      Registry.sample ~labels:[ ("s", "b") ] "t_att" (Registry.Counter 9);
      Registry.sample "t_b" (Registry.Counter 0);
      Registry.sample ~labels:[ ("op", "a") ] "t_lat" (hist 10L);
      Registry.sample ~labels:[ ("op", "b") ] "t_lat" (hist 99L);
    ]
  in
  let first_column sort =
    Dlz_obs.Text.to_string ~sort samples
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | "" :: _ | [] | "histogram" :: _ -> None
           | k :: _ -> Some k)
  in
  let check name sort expected =
    Alcotest.(check (list string)) name expected (first_column sort)
  in
  check "name: registry order" Dlz_obs.Text.By_name
    [ "t_att{s=\"a\"}"; "t_att{s=\"b\"}"; "t_b"; "t_lat{op=\"a\"}";
      "t_lat{op=\"b\"}" ];
  check "attempts: larger counters first" Dlz_obs.Text.By_attempts
    [ "t_att{s=\"b\"}"; "t_att{s=\"a\"}"; "t_b"; "t_lat{op=\"a\"}";
      "t_lat{op=\"b\"}" ];
  check "time: larger totals first" Dlz_obs.Text.By_time
    [ "t_att{s=\"a\"}"; "t_att{s=\"b\"}"; "t_b"; "t_lat{op=\"b\"}";
      "t_lat{op=\"a\"}" ]

(* `vic stats --format json` parses the daemon's Snap line and prints
   it again; the reprint (fractional p50 included) must not drift. *)
let test_snap_reprint () =
  let line = Jsonx.to_string (Snap.to_json fixed_samples) in
  match Jsonx.parse line with
  | Ok j -> check_str "parse then print is the identity" line (Jsonx.to_string j)
  | Error m -> Alcotest.fail ("snap line does not parse: " ^ m)

let test_nonfinite_float () =
  List.iter
    (fun f ->
      check_bool
        (Printf.sprintf "%h prints as valid JSON 0" f)
        true
        (Jsonx.parse (Jsonx.to_string (Jsonx.Float f)) = Ok (Jsonx.Int 0)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* Every byte, with control bytes, quote and backslash over-weighted,
   survives print then parse. *)
let str_roundtrip =
  let byte =
    QCheck.Gen.(
      frequency
        [ (2, char_range '\000' '\031'); (1, oneofl [ '"'; '\\' ]); (3, char) ])
  in
  QCheck.Test.make ~name:"parse (to_string (Str s)) = Ok (Str s)" ~count:1000
    (QCheck.string_gen byte) (fun s ->
      Jsonx.parse (Jsonx.to_string (Jsonx.Str s)) = Ok (Jsonx.Str s))

(* --- registry semantics --------------------------------------------------- *)

let test_registry_replace_and_reset () =
  let fired = ref 0 in
  Fun.protect
    ~finally:(fun () -> Registry.unregister "t_suite")
    (fun () ->
      Registry.register ~name:"t_suite" (fun () ->
          [ Registry.sample "t_old" (Registry.Counter 1) ]);
      (* Replace semantics: same name, latest collector wins. *)
      Registry.register ~name:"t_suite"
        ~reset:(fun () -> incr fired)
        (fun () -> [ Registry.sample "t_new" (Registry.Counter 2) ]);
      let names =
        List.filter
          (fun s ->
            String.length s.Registry.s_name >= 2
            && String.sub s.Registry.s_name 0 2 = "t_")
          (Registry.collect ())
        |> List.map (fun s -> s.Registry.s_name)
      in
      check_bool "replaced collector gone" true
        (not (List.mem "t_old" names));
      check_bool "replacement visible" true (List.mem "t_new" names);
      Registry.reset_all ();
      check_int "reset hook ran exactly once" 1 !fired;
      (* Engine.reset_metrics folds every registered hook in
         (satellite 1): the suite's own hook fires through it too. *)
      Dlz_engine.Engine.reset_metrics ();
      check_int "reset hook ran via Engine.reset_metrics" 2 !fired);
  (* After unregister the samples are gone and the hook is dead. *)
  Registry.reset_all ();
  check_int "unregistered hook no longer fires" 2 !fired

(* collect() sorts across collectors by (name, labels), regardless of
   registration order — the property Prometheus text determinism
   stands on. *)
let test_registry_sorted () =
  Fun.protect
    ~finally:(fun () ->
      Registry.unregister "t_z";
      Registry.unregister "t_a")
    (fun () ->
      Registry.register ~name:"t_z" (fun () ->
          [
            Registry.sample ~labels:[ ("l", "b") ] "t_m" (Registry.Counter 1);
            Registry.sample "t_a_metric" (Registry.Counter 1);
          ]);
      Registry.register ~name:"t_a" (fun () ->
          [ Registry.sample ~labels:[ ("l", "a") ] "t_m" (Registry.Counter 1) ]);
      let ours =
        List.filter
          (fun s ->
            String.length s.Registry.s_name >= 2
            && String.sub s.Registry.s_name 0 2 = "t_")
          (Registry.collect ())
      in
      let keys =
        List.map (fun s -> (s.Registry.s_name, s.Registry.s_labels)) ours
      in
      Alcotest.(check (list (pair string (list (pair string string)))))
        "collect sorted by (name, labels)"
        [
          ("t_a_metric", []);
          ("t_m", [ ("l", "a") ]);
          ("t_m", [ ("l", "b") ]);
        ]
        keys)

(* --- collector goldens ------------------------------------------------------ *)

(* Only the counter and gauge rows: histogram values are timings. *)
let counter_rows ~prefixes samples =
  List.filter
    (fun s ->
      List.exists
        (fun prefix -> String.starts_with ~prefix s.Registry.s_name)
        prefixes
      &&
      match s.Registry.s_value with
      | Registry.Counter _ | Registry.Gauge _ -> true
      | Registry.Hist _ -> false)
    samples

(* [vic_engine_alloc_minor_words_total] measures the allocation of the
   code under test, not behaviour, so its value is masked; the
   cache-hit slice stays pinned (the hit path must not allocate more). *)
let mask_alloc_total s =
  if s.Registry.s_name = "vic_engine_alloc_minor_words_total" then
    { s with Registry.s_value = Registry.Counter 0 }
  else s

let engine_golden_before =
  "# HELP vic_engine_alloc_minor_words_total minor words allocated inside queries\n\
   # TYPE vic_engine_alloc_minor_words_total counter\n\
   vic_engine_alloc_minor_words_total 0\n\
   # HELP vic_engine_cache_flushes_total shard flushes\n\
   # TYPE vic_engine_cache_flushes_total counter\n\
   vic_engine_cache_flushes_total 0\n\
   # HELP vic_engine_cache_hits_total cache hits by temperature\n\
   # TYPE vic_engine_cache_hits_total counter\n\
   vic_engine_cache_hits_total{temp=\"cold\"} 6\n\
   vic_engine_cache_hits_total{temp=\"warm\"} 6\n\
   # HELP vic_engine_cache_misses_total cache misses\n\
   # TYPE vic_engine_cache_misses_total counter\n\
   vic_engine_cache_misses_total 7\n\
   # HELP vic_engine_cache_uncacheable_total uncacheable queries\n\
   # TYPE vic_engine_cache_uncacheable_total counter\n\
   vic_engine_cache_uncacheable_total 2\n\
   # HELP vic_engine_degradations_total contained strategy faults\n\
   # TYPE vic_engine_degradations_total counter\n\
   vic_engine_degradations_total{strategy=\"delinearize\",reason=\"budget:fuel\"} 1\n\
   # HELP vic_engine_divergences_total oracle divergences\n\
   # TYPE vic_engine_divergences_total counter\n\
   vic_engine_divergences_total{strategy=\"banerjee\",class=\"imprecise\"} 1\n\
   # HELP vic_engine_hit_alloc_minor_words_total minor words allocated by cache hits\n\
   # TYPE vic_engine_hit_alloc_minor_words_total counter\n\
   vic_engine_hit_alloc_minor_words_total 120\n\
   # HELP vic_engine_oracle_checks_total differential oracle checks\n\
   # TYPE vic_engine_oracle_checks_total counter\n\
   vic_engine_oracle_checks_total 1\n\
   # HELP vic_engine_queries_total dependence queries\n\
   # TYPE vic_engine_queries_total counter\n\
   vic_engine_queries_total 21\n\
   # HELP vic_engine_snapshot_loaded_entries_total entries bulk-loaded from snapshots\n\
   # TYPE vic_engine_snapshot_loaded_entries_total counter\n\
   vic_engine_snapshot_loaded_entries_total 6\n\
   # HELP vic_engine_snapshot_loads_total snapshot files accepted\n\
   # TYPE vic_engine_snapshot_loads_total counter\n\
   vic_engine_snapshot_loads_total 1\n\
   # HELP vic_engine_snapshot_rejects_total snapshot files refused\n\
   # TYPE vic_engine_snapshot_rejects_total counter\n\
   vic_engine_snapshot_rejects_total 1\n\
   # HELP vic_engine_snapshot_save_fails_total snapshot writes that failed (contained)\n\
   # TYPE vic_engine_snapshot_save_fails_total counter\n\
   vic_engine_snapshot_save_fails_total 0\n\
   # HELP vic_engine_snapshot_saves_total snapshot files written\n\
   # TYPE vic_engine_snapshot_saves_total counter\n\
   vic_engine_snapshot_saves_total 1\n\
   # HELP vic_engine_strategy_attempts_total strategy attempts\n\
   # TYPE vic_engine_strategy_attempts_total counter\n\
   vic_engine_strategy_attempts_total{strategy=\"delinearize\"} 8\n\
   # HELP vic_engine_strategy_decisions_total strategy decisions\n\
   # TYPE vic_engine_strategy_decisions_total counter\n\
   vic_engine_strategy_decisions_total{strategy=\"delinearize\",verdict=\"dependent\"} 5\n\
   vic_engine_strategy_decisions_total{strategy=\"delinearize\",verdict=\"independent\"} 3\n\
   # HELP vic_engine_strategy_passes_total strategy passes\n\
   # TYPE vic_engine_strategy_passes_total counter\n\
   vic_engine_strategy_passes_total{strategy=\"delinearize\"} 0\n"

let engine_golden =
  "# HELP vic_engine_alloc_minor_words_total minor words allocated inside queries\n\
   # TYPE vic_engine_alloc_minor_words_total counter\n\
   vic_engine_alloc_minor_words_total 0\n\
   # HELP vic_engine_cache_flushes_total shard flushes\n\
   # TYPE vic_engine_cache_flushes_total counter\n\
   vic_engine_cache_flushes_total 0\n\
   # HELP vic_engine_cache_hits_total cache hits by temperature\n\
   # TYPE vic_engine_cache_hits_total counter\n\
   vic_engine_cache_hits_total{temp=\"cold\"} 3\n\
   vic_engine_cache_hits_total{temp=\"warm\"} 0\n\
   # HELP vic_engine_cache_misses_total cache misses\n\
   # TYPE vic_engine_cache_misses_total counter\n\
   vic_engine_cache_misses_total 10\n\
   # HELP vic_engine_cache_uncacheable_total uncacheable queries\n\
   # TYPE vic_engine_cache_uncacheable_total counter\n\
   vic_engine_cache_uncacheable_total 0\n\
   # HELP vic_engine_degradations_total contained strategy faults\n\
   # TYPE vic_engine_degradations_total counter\n\
   vic_engine_degradations_total{strategy=\"gcd\",reason=\"budget:fuel\"} 1\n\
   # HELP vic_engine_hit_alloc_minor_words_total minor words allocated by cache hits\n\
   # TYPE vic_engine_hit_alloc_minor_words_total counter\n\
   vic_engine_hit_alloc_minor_words_total 0\n\
   # HELP vic_engine_oracle_checks_total differential oracle checks\n\
   # TYPE vic_engine_oracle_checks_total counter\n\
   vic_engine_oracle_checks_total 0\n\
   # HELP vic_engine_queries_total dependence queries\n\
   # TYPE vic_engine_queries_total counter\n\
   vic_engine_queries_total 13\n\
   # HELP vic_engine_snapshot_loaded_entries_total entries bulk-loaded from snapshots\n\
   # TYPE vic_engine_snapshot_loaded_entries_total counter\n\
   vic_engine_snapshot_loaded_entries_total 0\n\
   # HELP vic_engine_snapshot_loads_total snapshot files accepted\n\
   # TYPE vic_engine_snapshot_loads_total counter\n\
   vic_engine_snapshot_loads_total 0\n\
   # HELP vic_engine_snapshot_rejects_total snapshot files refused\n\
   # TYPE vic_engine_snapshot_rejects_total counter\n\
   vic_engine_snapshot_rejects_total 0\n\
   # HELP vic_engine_snapshot_save_fails_total snapshot writes that failed (contained)\n\
   # TYPE vic_engine_snapshot_save_fails_total counter\n\
   vic_engine_snapshot_save_fails_total 0\n\
   # HELP vic_engine_snapshot_saves_total snapshot files written\n\
   # TYPE vic_engine_snapshot_saves_total counter\n\
   vic_engine_snapshot_saves_total 0\n\
   # HELP vic_engine_strategy_attempts_total strategy attempts\n\
   # TYPE vic_engine_strategy_attempts_total counter\n\
   vic_engine_strategy_attempts_total{strategy=\"gcd\"} 9\n\
   # HELP vic_engine_strategy_decisions_total strategy decisions\n\
   # TYPE vic_engine_strategy_decisions_total counter\n\
   vic_engine_strategy_decisions_total{strategy=\"gcd\",verdict=\"dependent\"} 0\n\
   vic_engine_strategy_decisions_total{strategy=\"gcd\",verdict=\"independent\"} 1\n\
   # HELP vic_engine_strategy_passes_total strategy passes\n\
   # TYPE vic_engine_strategy_passes_total counter\n\
   vic_engine_strategy_passes_total{strategy=\"gcd\"} 8\n"

(* A fixed engine workload, a reset, then a second workload through
   the gcd filter alone; the engine and pool counters must render
   exactly as pinned (the pool registers none, so no [vic_pool_] row
   may appear).  The reset step pins which labelled rows survive a
   reset: only what the second workload touched is shown.  Injection
   is switched off locally so the @matrix-ci chaos run renders the
   same. *)
let test_engine_collector_golden () =
  let module Engine = Dlz_engine.Engine in
  let module Stats = Dlz_engine.Stats in
  let module Chaos = Dlz_engine.Chaos in
  let module Persist = Dlz_engine.Persist in
  let module Problem = Dlz_deptest.Problem in
  let saved = Chaos.current () in
  Chaos.set_current None;
  let snap = Filename.temp_file "dlz_obs" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      Chaos.set_current saved;
      (try Sys.remove snap with Sys_error _ -> ());
      Engine.reset_metrics ())
    (fun () ->
      let family ~depth ~extent ~shifted =
        Problem.synthetic
          (Problem.numeric_of_equations ~n_common:depth
             ~common_ubs:(Array.make depth ((extent / 2) - 1))
             [ Dlz_driver.Workload.paper_family ~depth ~extent ~shifted ])
      in
      let probs =
        List.concat_map
          (fun depth ->
            [ family ~depth ~extent:8 ~shifted:false;
              family ~depth ~extent:8 ~shifted:true ])
          [ 1; 2; 3 ]
      in
      let program src =
        let accs, env =
          Dlz_ir.Access.of_program
            (Dlz_passes.Pipeline.prepare_program
               (Dlz_frontend.F77_parser.parse src))
        in
        (List.of_seq
           (Seq.map (fun pr -> pr.Engine.problem) (Engine.pairs_seq accs)),
         env)
      in
      let q ?cascade ?budget ?(env = Dlz_symbolic.Assume.empty) p =
        ignore (Engine.query ?cascade ?budget ~env p)
      in
      let exhausted () = Dlz_base.Budget.create ~fuel:0 () in
      (* [Stats.samples] of the global instance is the registry's
         engine rows, sample for sample. *)
      let one_source () =
        check_str "Stats.samples = the vic_engine_ rows"
          (Prom.to_string
             (List.filter
                (fun s ->
                  String.starts_with ~prefix:"vic_engine_" s.Registry.s_name)
                (Registry.collect ())))
          (Prom.to_string
             (List.stable_sort Registry.compare_sample
                (Stats.samples Stats.global)))
      in
      let render () =
        Registry.collect ()
        |> counter_rows ~prefixes:[ "vic_engine_"; "vic_pool_" ]
        |> List.map mask_alloc_total
        |> Prom.to_string
      in
      (* Workload 1: the default cascade, misses then hits, symbolic
         (uncacheable) pairs, a degraded query, a snapshot round trip
         (warm hits), a refused snapshot, and oracle bookkeeping. *)
      Engine.reset_metrics ();
      List.iter (fun p -> q p) probs;
      List.iter (fun p -> q p) probs;
      let sym, senv = program Dlz_driver.Fragments.symbolic_program in
      List.iter (fun p -> q ~env:senv p) sym;
      q ~budget:(exhausted ()) (family ~depth:4 ~extent:6 ~shifted:true);
      ignore (Persist.save snap);
      Dlz_engine.Query.clear Dlz_engine.Query.global_cache;
      ignore (Persist.load snap);
      ignore (Persist.load (snap ^ ".missing"));
      List.iter (fun p -> q p) probs;
      Stats.record_oracle_check Stats.global;
      Stats.record_divergence Stats.global "banerjee" ~cls:"imprecise";
      check_str "exposition before the reset" engine_golden_before (render ());
      one_source ();
      (* Reset, then workload 2 through the gcd filter alone: a pair gcd
         decides, pairs it passes, repeats that hit, and one degraded
         query. *)
      Engine.reset_metrics ();
      let gcd =
        match Dlz_engine.Cascade.of_names [ "gcd" ] with
        | Ok c -> c
        | Error m -> Alcotest.fail m
      in
      let strided, env =
        program
          "      DIMENSION A(400)\n\
          \      DO I = 0, 99\n\
          \        A(2*I) = A(2*I+1) + A(I)\n\
          \      ENDDO\n"
      in
      List.iter (fun p -> q ~cascade:gcd ~env p) strided;
      List.iter (fun p -> q ~cascade:gcd ~env p) strided;
      List.iter (fun p -> q ~cascade:gcd p) probs;
      q ~cascade:gcd ~budget:(exhausted ()) (family ~depth:4 ~extent:6 ~shifted:true);
      check_str "exposition after the reset" engine_golden (render ());
      one_source ())

let () =
  Alcotest.run "obs"
    [
      ( "prom",
        [
          Alcotest.test_case "golden exposition, sorted families" `Quick
            test_prom_golden;
          Alcotest.test_case "name/label escaping" `Quick test_prom_escaping;
          Alcotest.test_case "histogram buckets cumulative with +Inf" `Quick
            test_prom_histogram;
          Alcotest.test_case "byte-identical for any domain count" `Quick
            test_prom_jobs_identical;
        ] );
      ( "snap",
        [ Alcotest.test_case "versioned JSON shape" `Quick test_snap_shape ] );
      ( "jsonx",
        [
          Alcotest.test_case "fixed-state snap and prom goldens" `Quick
            test_fixed_state_golden;
          Alcotest.test_case "fixed-state text golden" `Quick
            test_text_golden;
          Alcotest.test_case "text sort within families" `Quick
            test_text_sort;
          Alcotest.test_case "snap line reprints byte-identical" `Quick
            test_snap_reprint;
          Alcotest.test_case "non-finite floats print as 0" `Quick
            test_nonfinite_float;
          QCheck_alcotest.to_alcotest str_roundtrip;
        ] );
      ( "registry",
        [
          Alcotest.test_case "replace semantics and reset coverage" `Quick
            test_registry_replace_and_reset;
          Alcotest.test_case "collect sorts across collectors" `Quick
            test_registry_sorted;
        ] );
      ( "collectors",
        [
          Alcotest.test_case "engine and pool counters after a reset" `Quick
            test_engine_collector_golden;
        ] );
    ]
