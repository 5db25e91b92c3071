(* Tests for the observability plane (lib/obs): the metric registry,
   the Prometheus text exposition writer, the versioned JSON snapshot
   codec, and the JSON codec every writer prints through.

   Determinism is the contract under test: the same metric state must
   render to byte-identical text regardless of registration order,
   scrape count, or how many domains did the recording — the registry
   sorts by (name, labels) and the writers are value-deterministic.
   Every assertion here is structural or byte-exact and independent of
   scheduling, so the suite is injection-proof by design (@obs-ci runs
   it under a chaos seed and at width 2).

   Collectors registered by this suite use a "t_..." name prefix and
   are unregistered on exit, so the process-wide collectors the linked
   libraries install (trace/pool/engine/serve) are never disturbed. *)

module Trace = Dlz_base.Trace
module Hist = Trace.Hist
module Registry = Dlz_obs.Registry
module Prom = Dlz_obs.Prom
module Snap = Dlz_obs.Snap
module Jsonx = Dlz_obs.Jsonx

let test_jobs =
  match Sys.getenv_opt "DLZ_TEST_JOBS" with
  | Some s -> ( try max 2 (int_of_string s) with Failure _ -> 4)
  | None -> 4

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
   [test_jobs] domains (each recording the same fixed multiset) must
   render byte-identically to one filled serially with the identical
   total multiset — shards change, state does not. *)
let test_prom_jobs_identical () =
  let obs = [ 7; 120; 120; 999; 31_000; 31_000; 250_000 ] in
  let serial = Hist.create () in
  for _ = 1 to test_jobs do
    List.iter (fun ns -> Hist.observe serial (Int64.of_int ns)) obs
  done;
  let parallel = Hist.create () in
  let doms =
    List.init test_jobs (fun _ ->
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
    ]
