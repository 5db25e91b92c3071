(* Tests for the tracing / latency-telemetry subsystem (lib/base/trace.ml)
   and its engine instrumentation: histogram bucket arithmetic, span
   nesting and sampling, the deterministic cross-domain merge, ring
   overflow, and the Chrome trace_event export — including the
   regression the ISSUE asks for: a parallel analysis run (and a chaos
   run) must produce valid JSON with balanced B/E per domain track and
   span provenance matching each result's decided_by/degraded_by.

   Every test sets the recording level and sampling knob explicitly and
   restores them on exit, so the suite is insensitive to DLZ_TRACE /
   DLZ_TRACE_SAMPLE in the environment; the engine-facing tests assert
   structural invariants only (balance, one-span-per-query, provenance
   consistency), which hold under DLZ_CHAOS too — the @trace-ci alias
   runs this binary under one chaos seed on purpose. *)

module Trace = Dlz_base.Trace
module Hist = Trace.Hist
module F77 = Dlz_frontend.F77_parser
module Pipeline = Dlz_passes.Pipeline
module Engine = Dlz_engine.Engine
module Analyze = Dlz_engine.Analyze
module Stats = Dlz_engine.Stats
module Chaos = Dlz_engine.Chaos

let prepare src = Pipeline.prepare_program (F77.parse src)

(* n statements with n distinct dependence distances — plenty of
   cacheable queries with a mix of hits and misses. *)
let many_distances_src n =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "      DIMENSION A(500)\n      DO I = 0, 99\n";
  for k = 1 to n do
    Buffer.add_string buf (Printf.sprintf "        A(I+%d) = A(I)\n" k)
  done;
  Buffer.add_string buf "      ENDDO\n";
  Buffer.contents buf

(* Run [f] with the recorder in a known state (level as given, sampling
   rate 1.0 under the ambient seed) and restore level, sampling and
   buffers afterwards no matter what. *)
let scoped level f () =
  let saved_level = Trace.level () in
  let saved_seed, saved_rate = Trace.sampling () in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_level saved_level;
      Trace.set_sampling ~seed:saved_seed saved_rate;
      Trace.clear ())
    (fun () ->
      Trace.set_sampling ~seed:saved_seed 1.0;
      Trace.clear ();
      Trace.set_level level;
      f ())

let default_buffer_capacity =
  match Sys.getenv_opt "DLZ_TRACE_BUF" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 65536)
  | None -> 65536

(* --- a minimal JSON reader ------------------------------------------------ *)

(* Just enough JSON to validate the Chrome export without pulling in a
   dependency: objects, arrays, strings (escapes consumed, \uXXXX kept
   raw — the exporter only escapes ASCII control characters), numbers
   as float, true/false/null.  Raises [Bad_json] on anything else, so
   "the output parses" is itself the first assertion. *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "dangling escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              Buffer.add_string buf (String.sub s (!pos - 1) 6);
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          incr pos;
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_str (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          J_obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          J_obj (members [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          J_list []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elems (v :: acc)
            | Some ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          J_list (elems [])
        end
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some ('-' | '0' .. '9') ->
        let start = !pos in
        let is_num = function
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        in
        while !pos < n && is_num s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> J_num f
        | None -> fail "bad number")
    | _ -> fail "unexpected character"
  and literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.equal (String.sub s !pos l) lit then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ lit)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let as_obj = function
  | J_obj kvs -> kvs
  | _ -> Alcotest.fail "JSON: expected object"

let as_list = function
  | J_list l -> l
  | _ -> Alcotest.fail "JSON: expected array"

let as_str = function
  | J_str s -> s
  | _ -> Alcotest.fail "JSON: expected string"

let as_num = function
  | J_num f -> f
  | _ -> Alcotest.fail "JSON: expected number"

let jfield k j =
  match List.assoc_opt k (as_obj j) with
  | Some v -> v
  | None -> Alcotest.failf "JSON: missing field %S" k

(* --- Chrome-export validation --------------------------------------------- *)

(* A completed span as reconstructed from the B/E stream: its E-event
   args (where the engine attaches result attributes) and its completed
   children in completion order. *)
type cspan = {
  cs_name : string;
  cs_args : (string * string) list;
  cs_children : cspan list;
}

type chrome = {
  c_tids : int list;  (* tids carrying B/E/i events *)
  c_meta_tids : int list;  (* tids named by thread_name metadata *)
  c_spans : cspan list;  (* every completed span, any depth, any tid *)
  c_truncated : int;  (* synthetically closed spans *)
}

(* Parses the document and replays the per-tid event streams: every E
   must close the innermost open B of the same name on its tid, and
   every stack must be empty at the end — the balance guarantee the
   exporter promises even across ring overwrites. *)
let validate_chrome (doc : string) : chrome =
  let j = parse_json doc in
  let evs = as_list (jfield "traceEvents" j) in
  let meta_tids = ref [] in
  let event_tids = ref [] in
  let stacks : (int, (string * cspan list ref) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  let spans = ref [] in
  let truncated = ref 0 in
  let args_of ev =
    match List.assoc_opt "args" (as_obj ev) with
    | None -> []
    | Some a -> List.map (fun (k, v) -> (k, as_str v)) (as_obj a)
  in
  let note tid l = if not (List.mem tid !l) then l := tid :: !l in
  List.iter
    (fun ev ->
      let name = as_str (jfield "name" ev) in
      let ph = as_str (jfield "ph" ev) in
      let tid = int_of_float (as_num (jfield "tid" ev)) in
      Alcotest.(check int) "pid" 1 (int_of_float (as_num (jfield "pid" ev)));
      let ts = as_num (jfield "ts" ev) in
      if ts < 0. then Alcotest.fail "negative timestamp";
      match ph with
      | "M" ->
          Alcotest.(check string) "metadata kind" "thread_name" name;
          note tid meta_tids
      | "B" ->
          note tid event_tids;
          let s = stack tid in
          s := (name, ref []) :: !s
      | "E" -> (
          note tid event_tids;
          let args = args_of ev in
          if List.mem_assoc "truncated" args then incr truncated;
          let s = stack tid in
          match !s with
          | (top, kids) :: rest when String.equal top name ->
              s := rest;
              let sp =
                { cs_name = name; cs_args = args; cs_children = List.rev !kids }
              in
              spans := sp :: !spans;
              (match rest with
              | (_, parent_kids) :: _ -> parent_kids := sp :: !parent_kids
              | [] -> ())
          | _ -> Alcotest.failf "unbalanced E %S on tid %d" name tid)
      | "i" -> note tid event_tids
      | ph -> Alcotest.failf "unexpected phase %S" ph)
    evs;
  Hashtbl.iter
    (fun tid s ->
      match !s with
      | [] -> ()
      | (name, _) :: _ -> Alcotest.failf "span %S left open on tid %d" name tid)
    stacks;
  {
    c_tids = List.sort compare !event_tids;
    c_meta_tids = List.sort compare !meta_tids;
    c_spans = !spans;
    c_truncated = !truncated;
  }

(* Balance of the raw (pre-export) stream: only meaningful when no ring
   overflowed. *)
let check_raw_balanced () =
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack d =
    match Hashtbl.find_opt stacks d with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks d s;
        s
  in
  List.iter
    (fun (d, ev) ->
      match ev.Trace.ev_ph with
      | Trace.B -> (stack d) := ev.Trace.ev_name :: !(stack d)
      | Trace.E -> (
          let s = stack d in
          match !s with
          | top :: rest when String.equal top ev.Trace.ev_name -> s := rest
          | _ -> Alcotest.failf "raw stream: unbalanced E %S" ev.Trace.ev_name)
      | Trace.I -> ())
    (Trace.events ());
  Hashtbl.iter
    (fun d s ->
      if !s <> [] then Alcotest.failf "raw stream: open span on domain %d" d)
    stacks

(* --- histogram units ------------------------------------------------------ *)

(* A ladder of durations spanning the bucket range: dense at the bottom
   (where rounding is delicate), multiplicative above. *)
let ns_ladder () =
  let acc = ref [] in
  for i = 0 to 2048 do
    acc := Int64.of_int i :: !acc
  done;
  let v = ref 2048. in
  while !v < 1e13 do
    acc := Int64.of_float !v :: !acc;
    v := !v *. 1.137
  done;
  List.rev !acc

let test_bucket_monotone () =
  let last = ref (-1) in
  List.iter
    (fun ns ->
      let b = Hist.bucket_of_ns ns in
      if b < !last then
        Alcotest.failf "bucket_of_ns not monotone at %Ldns (%d < %d)" ns b !last;
      if b < 0 || b >= Hist.buckets then
        Alcotest.failf "bucket %d out of range at %Ldns" b ns;
      last := b)
    (ns_ladder ());
  Alcotest.(check int) "huge durations clamp to the top bucket"
    (Hist.buckets - 1)
    (Hist.bucket_of_ns Int64.max_int)

let test_bucket_bounds_contain () =
  List.iter
    (fun ns ->
      let b = Hist.bucket_of_ns ns in
      let lo, hi = Hist.bucket_bounds b in
      let f = Int64.to_float ns in
      if f < lo then Alcotest.failf "%Ldns below bucket %d lo=%.3f" ns b lo;
      (* The top bucket also absorbs everything longer than its span. *)
      if f >= hi && b <> Hist.buckets - 1 then
        Alcotest.failf "%Ldns at/above bucket %d hi=%.3f" ns b hi)
    (ns_ladder ());
  (* Bounds tile the axis: each bucket's hi is the next one's lo, and
     bucket 0 reaches down to 0. *)
  let lo0, _ = Hist.bucket_bounds 0 in
  Alcotest.(check (float 0.0)) "bucket 0 lower bound" 0.0 lo0;
  for i = 0 to Hist.buckets - 2 do
    let _, hi = Hist.bucket_bounds i in
    let lo, _ = Hist.bucket_bounds (i + 1) in
    if i > 0 && abs_float (hi -. lo) > 1e-9 *. hi then
      Alcotest.failf "buckets %d/%d do not tile (%.6f vs %.6f)" i (i + 1) hi lo
  done

let test_hist_stats () =
  let h = Hist.create () in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Hist.percentile h 0.5);
  for _ = 1 to 100 do
    Hist.observe h 1000L
  done;
  Hist.observe h 9000L;
  Alcotest.(check int) "count" 101 (Hist.count h);
  Alcotest.(check int64) "total" 109_000L (Hist.total_ns h);
  Alcotest.(check int64) "max" 9000L (Hist.max_ns h);
  let p50 = Hist.percentile h 0.5 in
  (* One bucket is a factor of 2^(1/8) ≈ 1.09 wide; the estimate is its
     geometric midpoint, so 1000ns must come back within ~10%. *)
  if p50 < 900. || p50 > 1100. then
    Alcotest.failf "p50 of 1000ns observations was %.1f" p50;
  Alcotest.(check (float 0.0)) "p100 capped at observed max" 9000.
    (Hist.percentile h 1.0);
  if Hist.percentile h 0.99 > 9000. then Alcotest.fail "p99 above max";
  (* Negative durations clamp to 0 rather than crash or distort. *)
  Hist.observe h (-5L);
  Alcotest.(check int) "negative clamps, still counted" 102 (Hist.count h);
  Hist.reset h;
  Alcotest.(check int) "reset count" 0 (Hist.count h);
  Alcotest.(check int64) "reset total" 0L (Hist.total_ns h);
  Alcotest.(check int64) "reset max" 0L (Hist.max_ns h);
  Alcotest.(check (float 0.0)) "reset percentile" 0.0 (Hist.percentile h 0.5)

let test_hist_merged () =
  let h1 = Hist.create () and h2 = Hist.create () in
  for _ = 1 to 100 do
    Hist.observe h1 10L
  done;
  for _ = 1 to 50 do
    Hist.observe h2 1000L
  done;
  let m = Hist.merged [ h1; h2 ] in
  Alcotest.(check int) "merged count" 150 (Hist.count m);
  Alcotest.(check int64) "merged total" 51_000L (Hist.total_ns m);
  Alcotest.(check int64) "merged max" 1000L (Hist.max_ns m);
  (* 2/3 of the mass sits at 10ns: the median must be there, and p90
     must be in the 1000ns bucket. *)
  if Hist.percentile m 0.5 > 100. then Alcotest.fail "merged p50 off";
  let p90 = Hist.percentile m 0.9 in
  if p90 < 900. || p90 > 1100. then Alcotest.failf "merged p90 was %.1f" p90;
  (* The merge is a snapshot: later observations don't leak in. *)
  Hist.observe h1 10L;
  Alcotest.(check int) "snapshot isolation" 150 (Hist.count m)

let test_hist_multi_domain () =
  let h = Hist.create () in
  let per_domain = 1000 in
  let ds =
    Array.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Hist.observe h 100L
            done))
  in
  Array.iter Domain.join ds;
  Hist.observe h 100L;
  (* The join establishes happens-before, so every shard's writes are
     visible and the sum is exact. *)
  Alcotest.(check int) "cross-domain count" ((3 * per_domain) + 1) (Hist.count h);
  Alcotest.(check int64) "cross-domain total"
    (Int64.of_int (100 * ((3 * per_domain) + 1)))
    (Hist.total_ns h)

(* --- spans, sampling, buffers --------------------------------------------- *)

let names_and_phases () =
  List.map (fun (_, ev) -> (ev.Trace.ev_ph, ev.Trace.ev_name)) (Trace.events ())

let test_span_nesting =
  scoped Trace.Full @@ fun () ->
  Trace.with_span ~cat:"t" "a" (fun () ->
      Trace.with_span ~cat:"t" "b" (fun () -> ());
      Trace.instant ~cat:"t" "mark");
  Alcotest.(check (list (pair bool string)))
    "event order"
    [
      (true, "a"); (true, "b"); (false, "b"); (false, "mark"); (false, "a");
    ]
    (List.map
       (fun (ph, name) -> (ph = Trace.B, name))
       (names_and_phases ()));
  check_raw_balanced ()

let test_span_closes_on_raise =
  scoped Trace.Full @@ fun () ->
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "B and E both recorded" 2 (List.length (Trace.events ()));
  check_raw_balanced ()

let test_level_gates_recording =
  scoped Trace.Off @@ fun () ->
  Trace.with_span "a" (fun () -> ());
  Trace.instant "i";
  Trace.observe_ns "trace.test.off" 10L;
  Alcotest.(check int) "no events when off" 0 (List.length (Trace.events ()));
  Alcotest.(check bool) "no histogram when off" true
    (not (List.mem_assoc "trace.test.off" (Trace.hist_rows ())));
  Trace.set_level Trace.Timing;
  Trace.with_span "a" (fun () -> ());
  Alcotest.(check int) "no events at Timing" 0 (List.length (Trace.events ()));
  Trace.observe_ns "trace.test.off" 10L;
  Alcotest.(check int) "histogram records at Timing" 1
    (Hist.count (Trace.hist "trace.test.off"));
  Trace.time "trace.test.off" (fun () -> ());
  Alcotest.(check int) "Trace.time records" 2
    (Hist.count (Trace.hist "trace.test.off"));
  Trace.reset_hists ()

let test_sampling_rates =
  scoped Trace.Full @@ fun () ->
  Trace.set_sampling ~seed:7L 0.0;
  for _ = 1 to 50 do
    Trace.finish (Trace.start ~sample:true "q")
  done;
  Alcotest.(check int) "rate 0 keeps nothing" 0 (List.length (Trace.events ()));
  Trace.clear ();
  Trace.set_sampling ~seed:7L 1.0;
  for _ = 1 to 50 do
    Trace.finish (Trace.start ~sample:true "q")
  done;
  Alcotest.(check int) "rate 1 keeps everything" 100
    (List.length (Trace.events ()))

let test_sampling_deterministic =
  scoped Trace.Full @@ fun () ->
  let record () =
    Trace.clear ();
    for _ = 1 to 200 do
      Trace.finish (Trace.start ~sample:true "q")
    done;
    names_and_phases ()
  in
  Trace.set_sampling ~seed:42L 0.5;
  let a = record () in
  let kept = List.length a / 2 in
  (* The keep/drop decision is content-keyed, so a fixed seed gives a
     fixed subset — and at rate 0.5 over 200 spans it is some strict
     subset, not all-or-nothing. *)
  if kept = 0 || kept = 200 then
    Alcotest.failf "rate 0.5 kept %d of 200 spans" kept;
  Alcotest.(check bool) "same seed replays exactly" true (record () = a);
  Trace.set_sampling ~seed:43L 0.5;
  let b = record () in
  Trace.set_sampling ~seed:42L 0.5;
  Alcotest.(check bool) "returning to the seed replays again" true
    (record () = a);
  (* Not a hard guarantee for every seed pair, but for this one the
     subsets differ — the seed actually reaches the decision. *)
  Alcotest.(check bool) "different seed, different subset" false (a = b)

let test_sampled_out_suppresses_subtree =
  scoped Trace.Full @@ fun () ->
  Trace.set_sampling ~seed:0L 0.0;
  let parent = Trace.start ~sample:true "parent" in
  Alcotest.(check bool) "sampled-out span is not live" false
    (Trace.is_live parent);
  let child = Trace.start "child" in
  Alcotest.(check bool) "child suppressed" false (Trace.is_live child);
  (* Load-bearing instants still land inside a suppressed subtree. *)
  Trace.instant "mark";
  Trace.finish child;
  Trace.finish parent;
  Trace.set_sampling ~seed:0L 1.0;
  Trace.with_span "after" (fun () -> ());
  Alcotest.(check (list (pair bool string)))
    "only the instant and the post-subtree span recorded"
    [ (false, "mark"); (true, "after"); (false, "after") ]
    (List.map
       (fun (ph, name) -> (ph = Trace.B, name))
       (names_and_phases ()));
  check_raw_balanced ()

let test_multi_domain_merge_deterministic =
  scoped Trace.Full @@ fun () ->
  let ds =
    Array.init 3 (fun i ->
        Domain.spawn (fun () ->
            for j = 1 to 10 do
              Trace.with_span
                (Printf.sprintf "w%d.%d" i j)
                (fun () -> Trace.instant "tick")
            done))
  in
  Array.iter Domain.join ds;
  Trace.with_span "main" (fun () -> ());
  let e1 = Trace.events () in
  let e2 = Trace.events () in
  Alcotest.(check bool) "merge is reproducible" true (e1 = e2);
  Alcotest.(check int) "all events present" ((3 * 10 * 3) + 2)
    (List.length e1);
  let doms = List.sort_uniq compare (List.map fst e1) in
  Alcotest.(check int) "one stream per domain" 4 (List.length doms);
  Alcotest.(check bool) "export is reproducible" true
    (String.equal (Trace.to_chrome_json ()) (Trace.to_chrome_json ()));
  check_raw_balanced ()

let test_ring_overflow =
  scoped Trace.Full @@ fun () ->
  Fun.protect
    ~finally:(fun () -> Trace.set_buffer_capacity default_buffer_capacity)
    (fun () ->
      Trace.set_buffer_capacity 16;
      (* Only buffers created after the call get the small ring, so the
         overflow has to happen on a fresh domain.  The outer span's B
         is overwritten while its E survives: the orphan-E path. *)
      Domain.join
        (Domain.spawn (fun () ->
             let outer = Trace.start "outer" in
             for i = 1 to 40 do
               Trace.with_span (Printf.sprintf "w%d" i) (fun () -> ())
             done;
             Trace.finish outer));
      let dropped = Trace.dropped () in
      if dropped < 64 then Alcotest.failf "expected >= 64 dropped, got %d" dropped;
      let c = validate_chrome (Trace.to_chrome_json ()) in
      (* Balance held by construction (validate_chrome would have
         failed); the surviving complete spans are some suffix of the
         w* sequence. *)
      if List.length c.c_spans = 0 || List.length c.c_spans > 16 then
        Alcotest.failf "expected a ring-bounded suffix, got %d spans"
          (List.length c.c_spans))

(* --- engine integration --------------------------------------------------- *)

let allowed_dispositions = [ "hit"; "miss"; "uncacheable" ]

(* The acceptance criterion: one completed span per query, strategy
   child spans consistent with the result's decided_by/degraded_by
   attributes, per-domain tracks named and balanced. *)
let check_engine_trace c =
  Alcotest.(check (list int))
    "every event track carries thread_name metadata" c.c_tids c.c_meta_tids;
  if List.length c.c_tids < 2 then
    Alcotest.failf "expected main + worker tracks, got %d" (List.length c.c_tids);
  Alcotest.(check int) "no synthetically closed spans" 0 c.c_truncated;
  let queries =
    List.filter (fun sp -> String.equal sp.cs_name "query") c.c_spans
  in
  Alcotest.(check int) "one span per query" (Stats.queries Stats.global)
    (List.length queries);
  List.iter
    (fun q ->
      let cache =
        match List.assoc_opt "cache" q.cs_args with
        | Some c -> c
        | None -> Alcotest.fail "query span without cache disposition"
      in
      if not (List.mem cache allowed_dispositions) then
        Alcotest.failf "unexpected cache disposition %S" cache;
      let decided_by =
        match List.assoc_opt "decided_by" q.cs_args with
        | Some d -> d
        | None -> Alcotest.fail "query span without decided_by"
      in
      if String.equal cache "hit" then
        Alcotest.(check int) "cache hits run no strategies" 0
          (List.length q.cs_children)
      else begin
        (* Child spans are the strategy attempts.  A "decided:" outcome
           must come from the strategy the result credits, and every
           "degraded:" outcome must be listed in degraded_by. *)
        let degraded_by =
          match List.assoc_opt "degraded_by" q.cs_args with
          | None -> []
          | Some s ->
              List.map
                (fun entry ->
                  match String.index_opt entry ':' with
                  | Some i ->
                      ( String.sub entry 0 i,
                        String.sub entry (i + 1)
                          (String.length entry - i - 1) )
                  | None -> (entry, ""))
                (String.split_on_char ';' s)
        in
        List.iter
          (fun child ->
            match List.assoc_opt "outcome" child.cs_args with
            | None -> Alcotest.failf "strategy span %S without outcome"
                        child.cs_name
            | Some o when String.length o >= 8
                          && String.equal (String.sub o 0 8) "decided:" ->
                Alcotest.(check string) "decided_by matches the deciding span"
                  decided_by child.cs_name
            | Some o when String.length o >= 9
                          && String.equal (String.sub o 0 9) "degraded:" ->
                let reason = String.sub o 9 (String.length o - 9) in
                if not (List.mem (child.cs_name, reason) degraded_by) then
                  Alcotest.failf "degradation %s:%s not in degraded_by"
                    child.cs_name reason
            | Some _ -> ())
          q.cs_children
      end)
    queries

let run_analysis () =
  Engine.reset_metrics ();
  let prog = prepare (many_distances_src 10) in
  ignore (Analyze.deps_of_program ~jobs:Width.jobs prog);
  Alcotest.(check bool) "stats consistent" true (Stats.consistent Stats.global);
  if Stats.queries Stats.global = 0 then Alcotest.fail "workload ran no queries"

let test_parallel_export_balanced =
  scoped Trace.Full @@ fun () ->
  run_analysis ();
  check_raw_balanced ();
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ());
  check_engine_trace (validate_chrome (Trace.to_chrome_json ()));
  (* The --trace file goes through the same exporter; make sure the
     written form round-trips too. *)
  let path = Filename.temp_file "dlz_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.export_chrome path;
      let doc = In_channel.with_open_bin path In_channel.input_all in
      check_engine_trace (validate_chrome (String.trim doc)))

let test_chaos_export_balanced =
  scoped Trace.Full @@ fun () ->
  let saved = Chaos.current () in
  Fun.protect
    ~finally:(fun () -> Chaos.set_current saved)
    (fun () ->
      Chaos.set_current (Some (Chaos.make ~seed:7L ~rate:0.3));
      run_analysis ();
      check_raw_balanced ();
      let c = validate_chrome (Trace.to_chrome_json ()) in
      check_engine_trace c;
      (* At 30% injection over this workload faults certainly land; the
         containment path must still close every span and surface the
         degradation in the span attributes. *)
      let degraded =
        List.filter
          (fun sp ->
            String.equal sp.cs_name "query"
            && List.mem_assoc "degraded_by" sp.cs_args)
          c.c_spans
      in
      if degraded = [] then Alcotest.fail "chaos run degraded nothing")

let test_reset_metrics_clears_telemetry =
  scoped Trace.Full @@ fun () ->
  run_analysis ();
  if List.length (Trace.events ()) = 0 then Alcotest.fail "no events recorded";
  if Hist.count (Stats.query_hist ()) = 0 then
    Alcotest.fail "no latencies recorded";
  Engine.reset_metrics ();
  Alcotest.(check int) "stats cleared" 0 (Stats.queries Stats.global);
  Alcotest.(check int) "events cleared" 0 (List.length (Trace.events ()));
  Alcotest.(check int) "query latencies cleared" 0
    (Hist.count (Stats.query_hist ()));
  List.iter
    (fun (name, h) ->
      if Hist.count h <> 0 then Alcotest.failf "histogram %S not reset" name)
    (Trace.hist_rows ());
  (* Handles cached before the reset (the engine holds some) must keep
     recording into the same histograms. *)
  let h = Trace.hist "cache.hit" in
  Hist.observe h 5L;
  Alcotest.(check int) "cached handle survives reset" 1
    (Hist.count (Trace.hist "cache.hit"));
  Trace.reset_hists ()

let test_sampling_of_string () =
  (match Trace.sampling_of_string "0.5" with
  | Ok (seed, rate) ->
      Alcotest.(check int64) "default seed" 0L seed;
      Alcotest.(check (float 1e-9)) "rate" 0.5 rate
  | Error e -> Alcotest.failf "rate-only form rejected: %s" e);
  (match Trace.sampling_of_string "42:0.25" with
  | Ok (seed, rate) ->
      Alcotest.(check int64) "seed" 42L seed;
      Alcotest.(check (float 1e-9)) "rate" 0.25 rate
  | Error _ -> Alcotest.fail "seed:rate form rejected");
  (match Trace.sampling_of_string "2.0" with
  | Ok _ -> Alcotest.fail "rate above 1 accepted"
  | Error _ -> ());
  match Trace.sampling_of_string "nope" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let () =
  Alcotest.run "trace"
    [
      ( "histograms",
        [
          Alcotest.test_case "bucket_of_ns monotone" `Quick test_bucket_monotone;
          Alcotest.test_case "bucket bounds contain and tile" `Quick
            test_bucket_bounds_contain;
          Alcotest.test_case "count/total/max/percentile" `Quick test_hist_stats;
          Alcotest.test_case "merged snapshot" `Quick test_hist_merged;
          Alcotest.test_case "observations from many domains" `Quick
            test_hist_multi_domain;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting order" `Quick test_span_nesting;
          Alcotest.test_case "with_span closes on raise" `Quick
            test_span_closes_on_raise;
          Alcotest.test_case "levels gate recording" `Quick
            test_level_gates_recording;
          Alcotest.test_case "sampling rates 0 and 1" `Quick test_sampling_rates;
          Alcotest.test_case "sampling honors the seed" `Quick
            test_sampling_deterministic;
          Alcotest.test_case "sampled-out subtree suppressed" `Quick
            test_sampled_out_suppresses_subtree;
          Alcotest.test_case "sampling_of_string" `Quick test_sampling_of_string;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "multi-domain merge deterministic" `Quick
            test_multi_domain_merge_deterministic;
          Alcotest.test_case "ring overflow stays balanced" `Quick
            test_ring_overflow;
        ] );
      ( "engine",
        [
          Alcotest.test_case "parallel export valid and balanced" `Quick
            test_parallel_export_balanced;
          Alcotest.test_case "chaos export valid and balanced" `Quick
            test_chaos_export_balanced;
          Alcotest.test_case "reset_metrics clears telemetry" `Quick
            test_reset_metrics_clears_telemetry;
        ] );
    ]
