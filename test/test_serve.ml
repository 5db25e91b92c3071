(* Tests for the dependence-query daemon (lib/serve + the serve driver).

   The load-bearing properties:

   - protocol fidelity: ping/metrics/query/analyze round-trips over a
     real socket agree with the in-process engine (same process, same
     global cache, so the comparison is exact);
   - containment: a framing violation costs that connection exactly
     one ["protocol"] reply and the connection; well-framed garbage
     costs one ["bad-request"] reply and the connection continues; a
     mid-stream disconnect, a slow-loris client, or an injected chaos
     fault never takes the daemon down or touches another connection;
   - admission: a full queue answers ["overloaded"] with a retry hint
     immediately — the daemon never queues unboundedly, never hangs a
     client silently;
   - drain: the [shutdown] op finishes in-flight work, snapshots the
     warm cache, and a restart from that snapshot answers warm.

   Exact-assertion tests switch process-wide chaos injection off
   locally (the @matrix-ci alias also runs this suite with DLZ_CHAOS
   set); the two-seed chaos battery at the end sets its own seeds and
   asserts only injection-proof facts: every client terminates, the
   daemon survives, and a clean ping works afterwards. *)

module Budget = Dlz_base.Budget
module Trace = Dlz_base.Trace
module Depeq = Dlz_deptest.Depeq
module Problem = Dlz_deptest.Problem
module Engine = Dlz_engine.Engine
module Stats = Dlz_engine.Stats
module Chaos = Dlz_engine.Chaos
module Assume = Dlz_symbolic.Assume
module Workload = Dlz_driver.Workload
module Serve = Dlz_driver.Serve
module Addr = Dlz_serve.Addr
module Client = Dlz_serve.Client
module Frame = Dlz_serve.Frame
module Jsonx = Dlz_obs.Jsonx
module Proto = Dlz_serve.Proto
module Server = Dlz_serve.Server
module Registry = Dlz_obs.Registry

let without_chaos f () =
  let saved = Chaos.current () in
  Chaos.set_current None;
  Fun.protect ~finally:(fun () -> Chaos.set_current saved) f

let with_chaos ~seed ~rate f =
  let saved = Chaos.current () in
  Chaos.set_current (Some (Chaos.make ~seed ~rate));
  Fun.protect ~finally:(fun () -> Chaos.set_current saved) f

let loopback = Addr.Tcp ("127.0.0.1", 0)

(* Start on an ephemeral port, run [f] against the resolved address,
   drain, and hand back the summary — every server this suite starts
   goes through here, so none can leak past its test. *)
let with_server ?(cfg = Server.default_config loopback) f =
  Engine.reset_metrics ();
  match Server.start cfg with
  | Error m -> Alcotest.fail ("server start: " ^ m)
  | Ok srv ->
      let finished = ref false in
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          let s = Server.join srv in
          if not !finished then ignore s)
        (fun () ->
          let r = f (Server.address srv) in
          Server.stop srv;
          let s = Server.join srv in
          finished := true;
          (r, s))

(* A [vic_serve_*] counter or gauge as the last server's families
   expose it; read after [with_server] has drained it. *)
let served ?(labels = []) name =
  match
    List.find_opt
      (fun s -> s.Registry.s_name = name && s.Registry.s_labels = labels)
      (Registry.collect ())
  with
  | Some { Registry.s_value = Registry.Counter n; _ } -> n
  | Some { Registry.s_value = Registry.Gauge g; _ } -> int_of_float g
  | _ -> Alcotest.failf "no %s sample" name

let connect addr =
  match Client.connect ~timeout_ms:5_000 addr with
  | Ok c -> c
  | Error m -> Alcotest.fail ("connect: " ^ m)

let request c j =
  match Client.request c j with
  | Ok r -> r
  | Error m -> Alcotest.fail ("request: " ^ m)

let get_bool j k =
  match Jsonx.member k j with
  | Some (Jsonx.Bool b) -> b
  | _ -> Alcotest.failf "missing bool %S in %s" k (Jsonx.to_string j)

let get_str j k =
  match Option.bind (Jsonx.member k j) Jsonx.to_str with
  | Some s -> s
  | None -> Alcotest.failf "missing string %S in %s" k (Jsonx.to_string j)

let get_int j k =
  match Option.bind (Jsonx.member k j) Jsonx.to_int with
  | Some n -> n
  | None -> Alcotest.failf "missing int %S in %s" k (Jsonx.to_string j)

let obj fields = Jsonx.Obj fields

let ping ?(id = 1) c =
  let r = request c (obj [ ("op", Jsonx.Str "ping"); ("id", Jsonx.Int id) ]) in
  Alcotest.(check bool) "ping ok" true (get_bool r "ok");
  Alcotest.(check int) "ping id echoed" id (get_int r "id")

let family_problem ~depth ~extent ~shifted =
  let eq = Workload.paper_family ~depth ~extent ~shifted in
  Problem.numeric_of_equations ~n_common:depth
    ~common_ubs:(Array.make depth ((extent / 2) - 1))
    [ eq ]

let query_json ?fuel ?timeout_ms ~id np =
  obj
    ([
       ("op", Jsonx.Str "query");
       ("id", Jsonx.Int id);
       ("problem", Proto.problem_to_json np);
     ]
    @ (match fuel with Some f -> [ ("fuel", Jsonx.Int f) ] | None -> [])
    @
    match timeout_ms with
    | Some ms -> [ ("timeout_ms", Jsonx.Int ms) ]
    | None -> [])

(* A DO/ENDDO kernel with one self-dependent access pair. *)
let family_source = Workload.family_program ~depth:2 ~extent:8

(* --- protocol round-trips ------------------------------------------------ *)

(* The daemon's counters as one [metrics] json scrape reports them:
   the [vic_serve_*] samples of the Snap line, keyed by the short names
   the assertions below use. *)
let metrics_json id =
  obj
    [ ("op", Jsonx.Str "metrics"); ("format", Jsonx.Str "json");
      ("id", Jsonx.Int id) ]

let snapshot_of r =
  match
    Option.bind (Jsonx.member "metrics" r) (fun m ->
        Option.bind (Jsonx.member "metrics" m) Jsonx.to_list)
  with
  | Some ms -> ms
  | None ->
      Alcotest.failf "metrics reply carries no snapshot: %s" (Jsonx.to_string r)

let sample_value metrics name labels =
  List.find_map
    (fun m ->
      if Jsonx.member "name" m = Some (Jsonx.Str name)
         && Jsonx.member "labels" m = Some (Jsonx.Obj labels)
      then Option.bind (Jsonx.member "value" m) Jsonx.to_int
      else None)
    metrics

let serve_counters r =
  let metrics = snapshot_of r in
  let counter name labels =
    match sample_value metrics name labels with
    | Some n -> n
    | None -> Alcotest.failf "scrape has no %s sample" name
  in
  let outcome o =
    counter "vic_serve_connections_total" [ ("outcome", Jsonx.Str o) ]
  in
  [
    ("requests", counter "vic_serve_requests_total" []);
    ("responses", counter "vic_serve_responses_total" []);
    ("errors", counter "vic_serve_errors_total" []);
    ("malformed", counter "vic_serve_malformed_total" []);
    ("timeouts", counter "vic_serve_timeouts_total" []);
    ("accepted", outcome "accepted");
    ("shed", outcome "shed");
  ]

let test_ping_and_stats =
  without_chaos @@ fun () ->
  let (), _ =
    with_server (fun addr ->
        let c = connect addr in
        ping c;
        let r = request c (metrics_json 2) in
        Alcotest.(check bool) "metrics ok" true (get_bool r "ok");
        let s = serve_counters r in
        Alcotest.(check bool)
          "scrape carries serve counters" true
          (List.assoc "requests" s >= 2);
        Alcotest.(check bool)
          "scrape carries engine counters" true
          (sample_value (snapshot_of r) "vic_engine_queries_total" [] <> None);
        Client.close c)
  in
  ()

(* The old [stats] verb is gone: [metrics] is the one scrape, and
   [stats] is now an unknown op like any other. *)
let test_stats_op_refused =
  without_chaos @@ fun () ->
  let (), _ =
    with_server (fun addr ->
        let c = connect addr in
        let r = request c (obj [ ("op", Jsonx.Str "stats"); ("id", Jsonx.Int 1) ]) in
        Alcotest.(check bool) "stats refused" false (get_bool r "ok");
        Alcotest.(check string) "as a bad request" "bad-request"
          (get_str r "reason");
        ping ~id:2 c;
        Client.close c)
  in
  ()

let test_unix_socket =
  without_chaos @@ fun () ->
  let path = Filename.temp_file "dlz_serve" ".sock" in
  Sys.remove path;
  let cfg = Server.default_config (Addr.Unix_sock path) in
  let (), _ =
    with_server ~cfg (fun addr ->
        let c = connect addr in
        ping c;
        Client.close c)
  in
  Alcotest.(check bool)
    "socket file removed on drain" false (Sys.file_exists path)

(* The wire verdict must agree with the in-process engine: same
   process, same cascade, so equality is exact, not statistical. *)
let test_query_matches_engine =
  without_chaos @@ fun () ->
  let cases =
    [
      family_problem ~depth:2 ~extent:10 ~shifted:false;
      family_problem ~depth:2 ~extent:10 ~shifted:true;
      family_problem ~depth:3 ~extent:8 ~shifted:true;
    ]
  in
  let wire, _ =
    with_server (fun addr ->
        let c = connect addr in
        let rs =
          List.mapi
            (fun i np ->
              let r = request c (query_json ~id:i np) in
              Alcotest.(check bool) "query ok" true (get_bool r "ok");
              (get_str r "verdict", get_str r "decided_by"))
            cases
        in
        Client.close c;
        rs)
  in
  Engine.reset_metrics ();
  List.iter2
    (fun np (wire_verdict, wire_decider) ->
      let r = Engine.query ~env:Assume.empty (Problem.synthetic np) in
      Alcotest.(check string)
        "wire verdict = engine verdict"
        (Dlz_deptest.Verdict.to_string r.Dlz_engine.Strategy.verdict)
        wire_verdict;
      Alcotest.(check string)
        "wire provenance = engine provenance" r.Dlz_engine.Strategy.decided_by
        wire_decider)
    cases wire

let test_analyze_stream =
  without_chaos @@ fun () ->
  let pair_frames, _ =
    with_server (fun addr ->
        let c = connect addr in
        (match
           Client.send c
             (obj
                [
                  ("op", Jsonx.Str "analyze");
                  ("id", Jsonx.Int 7);
                  ("lang", Jsonx.Str "f");
                  ("source", Jsonx.Str family_source);
                ])
         with
        | Error m -> Alcotest.fail m
        | Ok () -> ());
        let n =
          match Client.read_stream c with
          | Error m -> Alcotest.fail m
          | Ok frames ->
              let pairs, summary =
                List.partition
                  (fun j ->
                    match Jsonx.member "op" j with
                    | Some (Jsonx.Str "pair") -> true
                    | _ -> false)
                  frames
              in
              let s =
                match summary with
                | [ s ] -> s
                | _ -> Alcotest.fail "expected exactly one summary frame"
              in
              Alcotest.(check bool) "summary ok" true (get_bool s "ok");
              Alcotest.(check bool) "summary done" true (get_bool s "done");
              Alcotest.(check int)
                "summary pairs = streamed pair frames" (List.length pairs)
                (get_int s "pairs");
              Alcotest.(check bool)
                "found dependences" true
                (get_int s "dependent" > 0);
              List.iter
                (fun p ->
                  ignore (get_str p "verdict");
                  ignore (get_str p "src");
                  Alcotest.(check int) "pair id echoed" 7 (get_int p "id"))
                pairs;
              List.length pairs
        in
        (* The stream left the connection clean: it still serves. *)
        ping ~id:8 c;
        Client.close c;
        n)
  in
  (* The pair frames, the counts and the loop report come from one
     query per pair. *)
  Alcotest.(check int) "one engine query per pair frame" pair_frames
    (served "vic_engine_queries_total")

(* --- containment --------------------------------------------------------- *)

let test_bad_json_continues =
  without_chaos @@ fun () ->
  let (), _ =
    with_server (fun addr ->
        let c = connect addr in
        (match Client.send_raw c (Frame.encode "this is not json") with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        (match Client.recv c with
        | Ok r ->
            Alcotest.(check bool) "error reply" false (get_bool r "ok");
            Alcotest.(check string)
              "bad-request reason" "bad-request" (get_str r "reason")
        | Error m -> Alcotest.fail m);
        (* Well-framed garbage costs one reply, not the connection. *)
        ping ~id:2 c;
        let r =
          request c (obj [ ("op", Jsonx.Str "frobnicate"); ("id", Jsonx.Int 3) ])
        in
        Alcotest.(check bool) "unknown op refused" false (get_bool r "ok");
        Alcotest.(check string)
          "unknown op reason" "bad-request" (get_str r "reason");
        ping ~id:4 c;
        Client.close c)
  in
  ()

(* A program whose normalization overflows (test/cli.t's bad.f) is a
   bad input like a parse error: the same message [vic analyze] prints,
   reason "bad-request", and the connection keeps serving. *)
let test_overflow_is_bad_request =
  without_chaos @@ fun () ->
  let (), _ =
    with_server (fun addr ->
        let c = connect addr in
        let r =
          request c
            (obj
               [
                 ("op", Jsonx.Str "analyze");
                 ("id", Jsonx.Int 5);
                 ("lang", Jsonx.Str "f");
                 ( "source",
                   Jsonx.Str
                     "      DIMENSION A(10)\n\
                     \      DO 10 I = 1, 4\n\
                      10    A(2305843009213693952*I+2305843009213693952) = \
                      A(1)\n\
                     \      END\n" );
               ])
        in
        Alcotest.(check bool) "refused" false (get_bool r "ok");
        Alcotest.(check string) "reason" "bad-request" (get_str r "reason");
        Alcotest.(check string)
          "message" "integer overflow in add" (get_str r "error");
        ping ~id:6 c;
        Client.close c)
  in
  ()

let test_malformed_frame_closes =
  without_chaos @@ fun () ->
  let (), _ =
    with_server (fun addr ->
        let c = connect addr in
        (match Client.send_raw c "not-a-length\n{\"op\":\"ping\"}\n" with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        (match Client.recv c with
        | Ok r ->
            Alcotest.(check bool) "error reply" false (get_bool r "ok");
            Alcotest.(check string)
              "protocol reason" "protocol" (get_str r "reason")
        | Error m -> Alcotest.fail m);
        (* The byte stream cannot resync: the server closed it. *)
        (match Client.recv c with
        | Error _ -> ()
        | Ok r ->
            Alcotest.failf "expected closed connection, got %s"
              (Jsonx.to_string r));
        Client.close c;
        (* The daemon itself is untouched. *)
        let c2 = connect addr in
        ping c2;
        Client.close c2)
  in
  Alcotest.(check bool)
    "malformed frame counted" true
    (served "vic_serve_malformed_total" >= 1)

let test_oversize_frame_closes =
  without_chaos @@ fun () ->
  let cfg = { (Server.default_config loopback) with Server.max_frame = 1024 } in
  let (), _ =
    with_server ~cfg (fun addr ->
        let c = connect addr in
        let big = String.make 4096 'x' in
        (match
           Client.send_raw c
             (Frame.encode
                (Jsonx.to_string
                   (obj [ ("op", Jsonx.Str "ping"); ("pad", Jsonx.Str big) ])))
         with
        | Ok () -> ()
        | Error _ -> () (* server may already have slammed the door *));
        (match Client.recv c with
        | Ok r ->
            Alcotest.(check bool) "oversize refused" false (get_bool r "ok")
        | Error _ -> () (* reply raced the close: the close is the point *));
        Client.close c;
        let c2 = connect addr in
        ping c2;
        Client.close c2)
  in
  ()

let test_disconnect_mid_stream =
  without_chaos @@ fun () ->
  let (), summary =
    with_server
      ~cfg:{ (Server.default_config loopback) with Server.workers = 2 }
      (fun addr ->
        (* One client starts an analyze and vanishes mid-stream... *)
        let c = connect addr in
        (match
           Client.send c
             (obj
                [
                  ("op", Jsonx.Str "analyze");
                  ("id", Jsonx.Int 1);
                  ("lang", Jsonx.Str "f");
                  ("source", Jsonx.Str family_source);
                ])
         with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        ignore (Client.recv c);
        Client.close c;
        (* ...while a concurrent one completes untouched. *)
        let c2 = connect addr in
        let r = request c2 (query_json ~id:2 (family_problem ~depth:2 ~extent:8 ~shifted:false)) in
        Alcotest.(check bool) "concurrent client ok" true (get_bool r "ok");
        ping ~id:3 c2;
        Client.close c2)
  in
  ignore summary

let test_slow_loris_timed_out =
  without_chaos @@ fun () ->
  let cfg =
    { (Server.default_config loopback) with Server.idle_timeout_ms = 300 }
  in
  let (), _ =
    with_server ~cfg (fun addr ->
        let c = connect addr in
        (* Half a frame, then silence: the read timeout must reclaim
           the worker. *)
        (match Client.send_raw c "40\n{\"op\":" with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        let t0 = Trace.now_ns () in
        (match Client.recv c with
        | Error _ -> () (* timed out / closed — either is reclamation *)
        | Ok r ->
            Alcotest.(check bool) "loris refused" false (get_bool r "ok"));
        let waited_ms =
          Int64.to_int (Int64.div (Int64.sub (Trace.now_ns ()) t0) 1_000_000L)
        in
        Alcotest.(check bool)
          "reclaimed within ~idle timeout (not the 5s client timeout)" true
          (waited_ms < 3_000);
        Client.close c;
        let c2 = connect addr in
        ping c2;
        Client.close c2)
  in
  Alcotest.(check bool)
    "timeout counted" true
    (served "vic_serve_timeouts_total" >= 1)

(* --- frame reader --------------------------------------------------------- *)

(* One connection's two ends: the reader's socket (with a receive
   timeout, so a reader that waits for bytes that never come fails as
   [Timeout] instead of hanging the suite) and the peer's. *)
let with_pair ?(timeout = 2.0) f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float a Unix.SO_RCVTIMEO timeout;
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () -> f (Frame.reader a) b)

let put fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let frame_result =
  Alcotest.testable
    (fun ppf -> function
      | Ok p -> Format.fprintf ppf "Ok %S" p
      | Error e -> Format.fprintf ppf "Error %s" (Frame.error_to_string e))
    ( = )

let read_is ?max_bytes what want r =
  Alcotest.check frame_result what want (Frame.read ?max_bytes r)

let test_frame_encode () =
  Alcotest.(check (list string)) "length line, payload, terminator"
    [ "0\n\n"; "3\nabc\n"; "10\n0123456789\n" ]
    (List.map Frame.encode [ ""; "abc"; "0123456789" ])

let test_frames_in_one_read =
  without_chaos @@ fun () ->
  with_pair @@ fun r peer ->
  put peer (String.concat "" (List.map Frame.encode [ "ab"; ""; "cde" ]));
  read_is "first" (Ok "ab") r;
  read_is "empty payload" (Ok "") r;
  read_is "third" (Ok "cde") r

let test_split_length_line =
  without_chaos @@ fun () ->
  with_pair @@ fun r peer ->
  put peer "1";
  (* The rest after a pause, so it arrives in a later read. *)
  let t = Thread.create (fun () -> Unix.sleepf 0.02; put peer "2\nhello, world\n") () in
  read_is "reassembled" (Ok "hello, world") r;
  Thread.join t

let test_payload_past_buffer =
  without_chaos @@ fun () ->
  with_pair @@ fun r peer ->
  let big = String.init ((3 * Frame.buffer_size) + 17) (fun i -> Char.chr (97 + (i mod 26))) in
  let t = Thread.create (fun () -> put peer (Frame.encode big ^ Frame.encode "next")) () in
  read_is "large payload intact" (Ok big) r;
  read_is "the stream continues" (Ok "next") r;
  Thread.join t

let test_too_large_unread =
  without_chaos @@ fun () ->
  (* Only the length line is sent: a reader that waited for the
     payload would time out instead. *)
  with_pair @@ fun r peer ->
  put peer "100000\n";
  read_is ~max_bytes:1024 "refused on the length line" (Error (Frame.Too_large 100000)) r;
  (* Nineteen digits pass the length-line cap but not [max_int]. *)
  put peer (String.make 19 '9' ^ "\n");
  read_is "a length past max_int saturates" (Error (Frame.Too_large max_int)) r

let test_eof_and_io =
  without_chaos @@ fun () ->
  let closed_after s want what =
    with_pair @@ fun r peer ->
    put peer s;
    Unix.shutdown peer Unix.SHUTDOWN_SEND;
    let rec last () = match Frame.read r with Ok _ -> last () | Error e -> e in
    Alcotest.check frame_result what (Error want) (Error (last ()))
  in
  closed_after (Frame.encode "ab") Frame.Eof "close between frames";
  closed_after "" Frame.Eof "close before any frame";
  closed_after "5\nab" (Frame.Io "eof inside frame") "close inside a payload";
  closed_after "12" (Frame.Io "eof inside frame") "close inside a length line";
  closed_after "2\nab" (Frame.Io "eof inside frame") "close before the terminator"

let test_missing_terminator =
  without_chaos @@ fun () ->
  with_pair @@ fun r peer ->
  put peer "2\nabX";
  read_is "terminator checked" (Error (Frame.Malformed "missing frame terminator")) r

let test_receive_timeout =
  without_chaos @@ fun () ->
  with_pair ~timeout:0.05 @@ fun r peer ->
  read_is "idle" (Error Frame.Timeout) r;
  put peer "3\nab";
  read_is "stalled inside a frame" (Error Frame.Timeout) r

(* The writer against the reader: frames of every size class, one of
   them larger than the buffer, arrive whole and in order. *)
let test_writer_round_trip =
  without_chaos @@ fun () ->
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
  let payloads =
    List.init 40 (fun i -> String.make (i * 97) (Char.chr (65 + (i mod 26))))
    @ [ String.make (Frame.buffer_size + 5) 'z'; "tail" ]
  in
  let w = Frame.writer b in
  let t =
    Thread.create
      (fun () ->
        List.iter (fun p -> ignore (Frame.add w p)) payloads;
        ignore (Frame.flush w))
      ()
  in
  let r = Frame.reader a in
  List.iteri
    (fun i p -> read_is (Printf.sprintf "frame %d" i) (Ok p) r)
    payloads;
  Thread.join t

(* --- wire ------------------------------------------------------------------ *)

let analyze_json ?(lang = "f") ~id source =
  obj
    [
      ("op", Jsonx.Str "analyze");
      ("id", Jsonx.Int id);
      ("lang", Jsonx.Str lang);
      ("source", Jsonx.Str source);
    ]

let stream c j =
  match Client.send c j with
  | Error m -> Alcotest.fail m
  | Ok () -> (
      match Client.read_stream c with Ok frames -> frames | Error m -> Alcotest.fail m)

(* A reply of several frames must not wait on a TCP timer: Nagle holds
   a small segment until the previous one is acknowledged, and the
   client delays its acknowledgement about 40 ms.  Ten analyzes of a
   kernel on one connection took over 400 ms that way; computing them
   takes a few. *)
let test_no_nagle_wait =
  without_chaos @@ fun () ->
  let kernel =
    List.find
      (fun (k : Dlz_corpus.Polybench.kernel) -> k.k_name = "gemm-linear")
      Dlz_corpus.Polybench.kernels
  in
  let ms, _ =
    with_server (fun addr ->
        let c = connect addr in
        let t0 = Trace.now_ns () in
        for id = 1 to 10 do
          let frames = stream c (analyze_json ~lang:"c" ~id kernel.k_source) in
          Alcotest.(check bool) "several frames per reply" true (List.length frames > 2)
        done;
        let ns = Int64.sub (Trace.now_ns ()) t0 in
        Client.close c;
        Int64.to_float ns /. 1e6)
  in
  if ms > 200. then Alcotest.failf "10 analyzes took %.1f ms (bound 200 ms)" ms

(* One loop of [n] statements over one array: every write meets every
   access, so the reply has hundreds of pair frames. *)
let many_pairs_source n =
  let b = Buffer.create 1024 in
  Buffer.add_string b "      DIMENSION A(1000)\n      DO I = 1, 100\n";
  for k = 1 to n do
    Buffer.add_string b (Printf.sprintf "        A(I+%d) = A(I+%d) + 1\n" k (2 * k))
  done;
  Buffer.add_string b "      ENDDO\n";
  Buffer.contents b

(* A reply past the write buffer leaves in more than one write: every
   pair frame still arrives, in the engine's pair order, then the
   summary. *)
let test_reply_past_buffer =
  without_chaos @@ fun () ->
  let source = many_pairs_source 24 in
  let expected =
    let prog =
      Dlz_passes.Pipeline.prepare_program
        (Dlz_passes.Inline.expand (Dlz_frontend.F77_parser.parse_units source))
    in
    let accs, _ = Dlz_ir.Access.of_program ~env:Assume.empty prog in
    let acc = ref [] in
    Engine.iter_pairs
      (fun (p : Engine.pair) ->
        acc :=
          (p.Engine.src.Dlz_ir.Access.stmt_name, p.Engine.dst.Dlz_ir.Access.stmt_name,
           p.Engine.self)
          :: !acc)
      accs;
    List.rev !acc
  in
  let frames, _ =
    with_server (fun addr ->
        let c = connect addr in
        let frames = stream c (analyze_json ~id:1 source) in
        ping ~id:2 c;
        Client.close c;
        frames)
  in
  let bytes =
    List.fold_left (fun n j -> n + String.length (Frame.encode (Jsonx.to_string j))) 0 frames
  in
  Alcotest.(check bool) "reply larger than the write buffer" true (bytes > Frame.buffer_size);
  let pairs, summary =
    match List.rev frames with
    | s :: ps -> (List.rev ps, s)
    | [] -> Alcotest.fail "no reply"
  in
  Alcotest.(check string) "summary last" "analyze" (get_str summary "op");
  Alcotest.(check int) "summary counts the pairs" (List.length pairs) (get_int summary "pairs");
  Alcotest.(check (list (triple string string bool)))
    "every pair frame, in order" expected
    (List.map (fun p -> (get_str p "src", get_str p "dst", get_bool p "self")) pairs)

(* --- admission ----------------------------------------------------------- *)

let test_overload_sheds_explicitly =
  without_chaos @@ fun () ->
  let cfg =
    {
      (Server.default_config loopback) with
      Server.workers = 1;
      queue_capacity = 1;
    }
  in
  let (), _ =
    with_server ~cfg (fun addr ->
        (* A occupies the single worker (a session holds its worker
           until it closes); B fills the queue of 1; C must be shed
           immediately and explicitly. *)
        let a = connect addr in
        ping a;
        (* ping forces A through admission onto the worker *)
        let b = connect addr in
        Unix.sleepf 0.2;
        let c = connect addr in
        (match Client.recv c with
        | Ok r ->
            Alcotest.(check bool) "shed reply" false (get_bool r "ok");
            Alcotest.(check string)
              "overloaded reason" "overloaded" (get_str r "reason");
            Alcotest.(check bool)
              "retry hint present" true
              (get_int r "retry_after_ms" >= 0)
        | Error m -> Alcotest.fail ("expected an overloaded reply: " ^ m));
        Client.close c;
        (* Releasing the worker drains the queue: B gets served. *)
        Client.close a;
        ping ~id:9 b;
        Client.close b)
  in
  Alcotest.(check bool)
    "shed counted" true
    (served ~labels:[ ("outcome", "shed") ] "vic_serve_connections_total" >= 1)

(* --- budgets ------------------------------------------------------------- *)

let test_tiny_budget_degrades_but_answers =
  without_chaos @@ fun () ->
  let (), _ =
    with_server (fun addr ->
        let c = connect addr in
        let np = family_problem ~depth:3 ~extent:12 ~shifted:true in
        let r = request c (query_json ~fuel:0 ~id:1 np) in
        (* Exhaustion is an answer, not a kill: ok:true, conservative
           verdict, degradation provenance on the wire. *)
        Alcotest.(check bool) "degraded query still ok" true (get_bool r "ok");
        Alcotest.(check string)
          "conservative verdict" "dependent" (get_str r "verdict");
        (match Jsonx.member "degraded" r with
        | Some (Jsonx.List (_ :: _)) -> ()
        | _ ->
            Alcotest.failf "expected degradations on the wire, got %s"
              (Jsonx.to_string r));
        (* The same connection still answers a full-budget query. *)
        let r2 = request c (query_json ~id:2 np) in
        Alcotest.(check bool) "follow-up ok" true (get_bool r2 "ok");
        Client.close c)
  in
  ()

(* --- drain + warm restart ------------------------------------------------ *)

let test_shutdown_drains_and_warm_restarts =
  without_chaos @@ fun () ->
  let snap = Filename.temp_file "dlz_serve" ".snap" in
  let probs =
    List.init 4 (fun k ->
        family_problem ~depth:(1 + (k mod 3)) ~extent:10 ~shifted:(k >= 2))
  in
  let cfg_save =
    { (Server.default_config loopback) with Server.snapshot_save = Some snap }
  in
  let (), sum1 =
    with_server ~cfg:cfg_save (fun addr ->
        let c = connect addr in
        List.iteri
          (fun i np ->
            let r = request c (query_json ~id:i np) in
            Alcotest.(check bool) "warm-up query ok" true (get_bool r "ok"))
          probs;
        let r =
          request c (obj [ ("op", Jsonx.Str "shutdown"); ("id", Jsonx.Int 99) ])
        in
        Alcotest.(check bool) "shutdown acknowledged" true (get_bool r "ok");
        Client.close c)
  in
  let saved =
    match sum1.Server.sm_saved with
    | Some (Ok n) -> n
    | Some (Error m) -> Alcotest.fail ("drain snapshot failed: " ^ m)
    | None -> Alcotest.fail "drain snapshot not attempted"
  in
  Alcotest.(check bool) "drain snapshot non-empty" true (saved > 0);
  (* Restart from the snapshot: the same queries answer warm. *)
  let cfg_load =
    { (Server.default_config loopback) with Server.snapshot_load = Some snap }
  in
  let (), sum2 =
    with_server ~cfg:cfg_load (fun addr ->
        let c = connect addr in
        List.iteri
          (fun i np ->
            let r = request c (query_json ~id:i np) in
            Alcotest.(check bool) "warm query ok" true (get_bool r "ok"))
          probs;
        let warm = Stats.warm_hits Stats.global in
        Alcotest.(check bool) "warm-start hits > 0" true (warm > 0);
        Client.close c)
  in
  (match sum2.Server.sm_loaded with
  | Some (Ok n) ->
      Alcotest.(check int) "loaded what was saved" saved n
  | Some (Error m) -> Alcotest.fail ("warm start failed: " ^ m)
  | None -> Alcotest.fail "warm start not attempted");
  Sys.remove snap

(* --- observability -------------------------------------------------------- *)

let with_client client = function
  | Jsonx.Obj fields -> Jsonx.Obj (("client", Jsonx.Str client) :: fields)
  | j -> j

(* The metrics scrape as a regression instrument: a known request mix on
   one connection must move the serve counters by exactly its own
   weight.  Exactness is a same-connection property — the one worker
   serving the connection orders every increment against the scrapes
   it renders.  Counters owned by other domains (the accept loop's
   [accepted]) are only eventually consistent with a scrape, so they
   get a converge-poll, not a lockstep delta. *)
let test_stats_exact_deltas =
  without_chaos @@ fun () ->
  let (deltas, total), _ =
    with_server (fun addr ->
        let c = connect addr in
        let s0 = serve_counters (request c (metrics_json 100)) in
        (* The mix: 3 pings, a cold query + its cache hit, one
           well-framed unknown op. *)
        ping ~id:1 c;
        ping ~id:2 c;
        ping ~id:3 c;
        let np = family_problem ~depth:2 ~extent:8 ~shifted:false in
        let r = request c (query_json ~id:4 np) in
        Alcotest.(check bool) "query ok" true (get_bool r "ok");
        let r = request c (query_json ~id:5 np) in
        Alcotest.(check bool) "repeat query ok" true (get_bool r "ok");
        let r =
          request c (obj [ ("op", Jsonx.Str "frobnicate"); ("id", Jsonx.Int 6) ])
        in
        Alcotest.(check bool) "unknown op refused" false (get_bool r "ok");
        let s1 = serve_counters (request c (metrics_json 101)) in
        let deltas =
          List.map
            (fun k -> (k, List.assoc k s1 - List.assoc k s0))
            [ "requests"; "responses"; "errors"; "shed"; "malformed" ]
        in
        (* A second connection's admission is counted by the accept
           loop's own domain: poll until it lands. *)
        let c2 = connect addr in
        ping ~id:7 c2;
        Client.close c2;
        let deadline = Int64.add (Trace.now_ns ()) 5_000_000_000L in
        let rec settle () =
          let s = serve_counters (request c (metrics_json 102)) in
          let a = List.assoc "accepted" s in
          if a >= 2 || Trace.now_ns () > deadline then a else settle ()
        in
        let accepted = settle () in
        Client.close c;
        (deltas, accepted))
  in
  (* requests = 3 pings + 2 queries + 1 bad + the closing scrape itself
     (a request is counted when its frame is read, so the scrape has
     counted itself before it renders); responses = the opening
     scrape's own reply + 3 pings + 2 queries (a response is counted
     when sent, so each scrape's reply lands in the next window). *)
  Alcotest.(check (list (pair string int)))
    "same-connection deltas exact"
    [
      ("requests", 7); ("responses", 6); ("errors", 1); ("shed", 0);
      ("malformed", 0);
    ]
    deltas;
  Alcotest.(check int) "both connections eventually counted accepted" 2 total

(* The same instrument under process-wide fault injection: exact
   deltas are gone (a fault can eat a reply after its request was
   counted), but the books must still balance — every reply this
   client read implies a counted request, and the daemon never sends
   more replies than it received requests. *)
let test_stats_books_balance_under_chaos () =
  let (), _ =
    with_chaos ~seed:5L ~rate:0.05 @@ fun () ->
    with_server (fun addr ->
        let rec scrape id tries =
          if tries = 0 then
            Alcotest.fail "metrics verb never answered under chaos"
          else
            match Client.connect ~timeout_ms:2_000 addr with
            | Error _ -> scrape id (tries - 1)
            | Ok c ->
                let r = Client.request c (metrics_json id) in
                Client.close c;
                (match r with
                | Ok r when Jsonx.member "metrics" r <> None -> serve_counters r
                | _ -> scrape id (tries - 1))
        in
        let s0 = scrape 100 50 in
        let oks = ref 0 and errs = ref 0 in
        for i = 1 to 16 do
          match Client.connect ~timeout_ms:2_000 addr with
          | Error _ -> ()
          | Ok c ->
              let j =
                if i mod 4 = 0 then
                  obj [ ("op", Jsonx.Str "frobnicate"); ("id", Jsonx.Int i) ]
                else obj [ ("op", Jsonx.Str "ping"); ("id", Jsonx.Int i) ]
              in
              (match Client.request c j with
              | Ok r -> (
                  match Jsonx.member "ok" r with
                  | Some (Jsonx.Bool true) -> incr oks
                  | Some (Jsonx.Bool false) -> incr errs
                  | _ -> ())
              | Error _ -> ());
              Client.close c
        done;
        let s1 = scrape 101 50 in
        let d k = List.assoc k s1 - List.assoc k s0 in
        (* Every reply has a cause the daemon counted: a well-framed
           request, or a framing/timeout fault it refused (a chaos-torn
           frame draws a ["protocol"] reply with no request behind
           it). *)
        let causes = d "requests" + d "malformed" + d "timeouts" in
        Alcotest.(check bool)
          "every reply read implies a counted cause" true
          (causes >= !oks + !errs);
        Alcotest.(check bool)
          "replies sent never exceed counted causes" true
          (d "responses" + d "errors" <= causes);
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (k ^ " counter is monotone") true (d k >= 0))
          [
            "requests"; "responses"; "errors"; "accepted"; "malformed";
            "timeouts";
          ])
  in
  ()

(* The request-correlation contract: every response carries a rid,
   rids are strictly monotonic, and the same rid appears on the
   daemon's own "serve.request" trace span — and, for a query, on the
   engine's "query" span it caused (threaded through [?annot]). *)
let test_rid_roundtrip =
  without_chaos @@ fun () ->
  let saved_level = Trace.level () in
  let saved_seed, saved_rate = Trace.sampling () in
  Trace.set_level Trace.Full;
  Trace.set_sampling ~seed:1L 1.0;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_level saved_level;
      Trace.set_sampling ~seed:saved_seed saved_rate;
      Trace.clear ())
  @@ fun () ->
  let rids, _ =
    with_server (fun addr ->
        let c = connect addr in
        let r_ping =
          request c (obj [ ("op", Jsonx.Str "ping"); ("id", Jsonx.Int 1) ])
        in
        let np = family_problem ~depth:2 ~extent:8 ~shifted:false in
        let r_query = request c (query_json ~id:2 np) in
        let r_metrics = request c (metrics_json 3) in
        Client.close c;
        List.map (fun r -> get_int r "rid") [ r_ping; r_query; r_metrics ])
  in
  List.iter
    (fun rid -> Alcotest.(check bool) "rid positive" true (rid >= 1))
    rids;
  (match rids with
  | [ a; b; c ] ->
      Alcotest.(check bool) "rids strictly monotonic" true (a < b && b < c)
  | _ -> Alcotest.fail "expected three rids");
  (* The server is joined: the ring buffers are quiescent. *)
  let events = Trace.events () in
  let span_with name rid =
    List.exists
      (fun ((_ : int), e) ->
        e.Trace.ev_name = name
        && List.assoc_opt "rid" e.Trace.ev_args = Some (string_of_int rid))
      events
  in
  List.iter
    (fun rid ->
      Alcotest.(check bool)
        (Printf.sprintf "rid %d on a serve.request span" rid)
        true
        (span_with "serve.request" rid))
    rids;
  Alcotest.(check bool)
    "query rid rides the engine query span" true
    (span_with "query" (List.nth rids 1))

(* The metrics verb end to end: warm-start a server so the per-client
   warm/cold hit split has both temperatures, drive a named client
   through a known query mix, and check the Prometheus body — exact
   attribution counters, derived per-client per-verb p50/p99 gauges,
   sorted family order, and byte-identical rendering of unchanged
   state. *)
let test_metrics_verb_prom =
  without_chaos @@ fun () ->
  let snap = Filename.temp_file "dlz_serve" ".snap" in
  let probs =
    List.init 3 (fun k ->
        family_problem ~depth:2 ~extent:(8 + (2 * k)) ~shifted:false)
  in
  let cfg_save =
    { (Server.default_config loopback) with Server.snapshot_save = Some snap }
  in
  let (), _ =
    with_server ~cfg:cfg_save (fun addr ->
        let c = connect addr in
        List.iteri
          (fun i np ->
            let r = request c (query_json ~id:i np) in
            Alcotest.(check bool) "seed query ok" true (get_bool r "ok"))
          probs;
        let r =
          request c (obj [ ("op", Jsonx.Str "shutdown"); ("id", Jsonx.Int 99) ])
        in
        Alcotest.(check bool) "shutdown acknowledged" true (get_bool r "ok");
        Client.close c)
  in
  let cfg_load =
    { (Server.default_config loopback) with Server.snapshot_load = Some snap }
  in
  let (), _ =
    with_server ~cfg:cfg_load (fun addr ->
        let c = connect addr in
        let q id np =
          let r = request c (with_client "t-obs" (query_json ~id np)) in
          Alcotest.(check bool) "attributed query ok" true (get_bool r "ok")
        in
        (* 3 warm hits (snapshot entries), then a miss and its cold hit. *)
        List.iteri (fun i np -> q i np) probs;
        let fresh = family_problem ~depth:3 ~extent:6 ~shifted:true in
        q 10 fresh;
        q 11 fresh;
        let fetch id =
          let r =
            request c
              (obj
                 [
                   ("op", Jsonx.Str "metrics");
                   ("id", Jsonx.Int id);
                   ("format", Jsonx.Str "prom");
                   ("client", Jsonx.Str "t-obs");
                 ])
          in
          Alcotest.(check bool) "metrics ok" true (get_bool r "ok");
          Alcotest.(check string) "format echoed" "prom" (get_str r "format");
          get_str r "body"
        in
        (* A name past the 64-byte cap is cut at a codepoint boundary:
           63 bytes of ASCII then a 2-byte [é] keeps only the ASCII. *)
        let long = String.make 63 'a' in
        ignore
          (request c
             (with_client (long ^ "\xc3\xa9") (obj [ ("op", Jsonx.Str "ping") ])));
        let body = fetch 20 in
        let body2 = fetch 21 in
        Alcotest.(check bool) "exposition is valid UTF-8" true
          (String.is_valid_utf_8 body);
        let has needle b =
          let nl = String.length needle and bl = String.length b in
          let rec go i =
            i + nl <= bl && (String.sub b i nl = needle || go (i + 1))
          in
          go 0
        in
        let expect line =
          Alcotest.(check bool) ("body has " ^ line) true (has line body)
        in
        expect "vic_client_requests_total{client=\"t-obs\",verb=\"query\"} 5\n";
        expect "vic_client_cache_hits_total{client=\"t-obs\",temp=\"warm\"} 3\n";
        expect "vic_client_cache_hits_total{client=\"t-obs\",temp=\"cold\"} 1\n";
        expect "vic_client_cache_misses_total{client=\"t-obs\"} 1\n";
        expect
          ("vic_client_requests_total{client=\"" ^ long ^ "\",verb=\"ping\"} 1\n");
        expect "vic_client_request_ns_p50{client=\"t-obs\",verb=\"query\"} ";
        expect "vic_client_request_ns_p99{client=\"t-obs\",verb=\"query\"} ";
        (* Scraping must not move the attribution counters. *)
        Alcotest.(check bool)
          "second scrape sees the same counters" true
          (has "vic_client_cache_hits_total{client=\"t-obs\",temp=\"warm\"} 3\n"
             body2
          && has "vic_client_requests_total{client=\"t-obs\",verb=\"query\"} 5\n"
               body2);
        (* Families arrive in sorted order on the wire. *)
        let headers =
          String.split_on_char '\n' body
          |> List.filter_map (fun l ->
                 if String.length l > 7 && String.sub l 0 7 = "# TYPE " then
                   Some (List.hd (String.split_on_char ' '
                                    (String.sub l 7 (String.length l - 7))))
                 else None)
        in
        Alcotest.(check bool)
          "family headers sorted" true
          (List.sort compare headers = headers);
        Alcotest.(check bool) "several families exposed" true
          (List.length headers > 5);
        Client.close c;
        (* Unchanged state renders byte-identically.  The worker
           records its last observation after its last reply, so
           quiescence is eventual: scrape in-process until two
           successive renders agree (if rendering of unchanged state
           were nondeterministic, no fixpoint would ever land). *)
        let deadline = Int64.add (Trace.now_ns ()) 5_000_000_000L in
        let rec stabilize prev =
          let cur = Dlz_obs.Prom.to_string (Dlz_obs.Registry.collect ()) in
          if String.equal prev cur then ()
          else if Trace.now_ns () > deadline then
            Alcotest.fail "obs scrape never reached a byte-stable fixpoint"
          else stabilize cur
        in
        stabilize "")
  in
  Sys.remove snap

(* The daemon's counter exposition after a fixed one-connection
   script, pinned byte for byte: the [vic_serve_*] and [vic_client_*]
   counter and gauge rows (histograms are timings and left out),
   rendered after the drain so every worker has recorded.  Injection
   is off locally, so every @matrix-ci configuration renders the same. *)
let serve_golden =
  "# HELP vic_client_cache_hits_total engine cache hits per client\n\
   # TYPE vic_client_cache_hits_total counter\n\
   vic_client_cache_hits_total{client=\"t-golden\",temp=\"cold\"} 1\n\
   # HELP vic_client_cache_misses_total engine cache misses per client\n\
   # TYPE vic_client_cache_misses_total counter\n\
   vic_client_cache_misses_total{client=\"anon\"} 1\n\
   vic_client_cache_misses_total{client=\"t-golden\"} 1\n\
   # HELP vic_client_errors_total error replies per client and reason\n\
   # TYPE vic_client_errors_total counter\n\
   vic_client_errors_total{client=\"anon\",reason=\"bad-request\"} 1\n\
   vic_client_errors_total{client=\"t-golden\",reason=\"bad-request\"} 1\n\
   # HELP vic_client_requests_total requests dispatched per client and verb\n\
   # TYPE vic_client_requests_total counter\n\
   vic_client_requests_total{client=\"anon\",verb=\"invalid\"} 1\n\
   vic_client_requests_total{client=\"anon\",verb=\"ping\"} 1\n\
   vic_client_requests_total{client=\"anon\",verb=\"query\"} 1\n\
   vic_client_requests_total{client=\"t-golden\",verb=\"invalid\"} 1\n\
   vic_client_requests_total{client=\"t-golden\",verb=\"ping\"} 1\n\
   vic_client_requests_total{client=\"t-golden\",verb=\"query\"} 2\n\
   # HELP vic_serve_active connections being served right now\n\
   # TYPE vic_serve_active gauge\n\
   vic_serve_active 0\n\
   # HELP vic_serve_connections_total connections by admission outcome\n\
   # TYPE vic_serve_connections_total counter\n\
   vic_serve_connections_total{outcome=\"accepted\"} 1\n\
   vic_serve_connections_total{outcome=\"rejected_draining\"} 0\n\
   vic_serve_connections_total{outcome=\"shed\"} 0\n\
   # HELP vic_serve_contained_total dispatch faults contained to one error reply\n\
   # TYPE vic_serve_contained_total counter\n\
   vic_serve_contained_total 0\n\
   # HELP vic_serve_disconnects_total connections lost mid-stream\n\
   # TYPE vic_serve_disconnects_total counter\n\
   vic_serve_disconnects_total 0\n\
   # HELP vic_serve_errors_total ok:false frames sent\n\
   # TYPE vic_serve_errors_total counter\n\
   vic_serve_errors_total 2\n\
   # HELP vic_serve_malformed_total frames violating framing or JSON\n\
   # TYPE vic_serve_malformed_total counter\n\
   vic_serve_malformed_total 1\n\
   # HELP vic_serve_requests_total well-framed requests received\n\
   # TYPE vic_serve_requests_total counter\n\
   vic_serve_requests_total 7\n\
   # HELP vic_serve_responses_total ok:true frames sent\n\
   # TYPE vic_serve_responses_total counter\n\
   vic_serve_responses_total 5\n\
   # HELP vic_serve_timeouts_total reads that hit the idle timeout\n\
   # TYPE vic_serve_timeouts_total counter\n\
   vic_serve_timeouts_total 0\n"

let test_serve_collector_golden =
  without_chaos @@ fun () ->
  let (), _ =
    with_server (fun addr ->
        let c = connect addr in
        ping ~id:1 c;
        let np = family_problem ~depth:2 ~extent:8 ~shifted:false in
        let r = request c (query_json ~id:2 np) in
        Alcotest.(check bool) "query ok" true (get_bool r "ok");
        (match Client.send_raw c (Frame.encode "{not json") with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        (match Client.recv c with
        | Ok r -> Alcotest.(check bool) "bad JSON refused" false (get_bool r "ok")
        | Error m -> Alcotest.fail m);
        let named j = request c (with_client "t-golden" j) in
        let r = named (query_json ~id:3 np) in
        Alcotest.(check bool) "named query ok" true (get_bool r "ok");
        let r = named (query_json ~id:4 (family_problem ~depth:3 ~extent:6 ~shifted:true)) in
        Alcotest.(check bool) "named miss ok" true (get_bool r "ok");
        let r = named (obj [ ("op", Jsonx.Str "frobnicate"); ("id", Jsonx.Int 5) ]) in
        Alcotest.(check bool) "named unknown op refused" false (get_bool r "ok");
        ignore (named (obj [ ("op", Jsonx.Str "ping"); ("id", Jsonx.Int 6) ]));
        Client.close c)
  in
  let rows =
    List.filter
      (fun s ->
        (String.starts_with ~prefix:"vic_serve_" s.Dlz_obs.Registry.s_name
        || String.starts_with ~prefix:"vic_client_" s.Dlz_obs.Registry.s_name)
        &&
        match s.Dlz_obs.Registry.s_value with
        | Dlz_obs.Registry.Hist _ -> false
        | Dlz_obs.Registry.Counter _ | Dlz_obs.Registry.Gauge _ -> true)
      (Dlz_obs.Registry.collect ())
  in
  Alcotest.(check string) "serve and client exposition" serve_golden
    (Dlz_obs.Prom.to_string rows)

(* The cardinality cap: past [max_clients] names, newcomers share the
   "other" label; a reset forgets every client, so the cap starts
   over. *)
let test_client_cap () =
  let a = Dlz_serve.Attrib.create ~max_clients:2 () in
  Dlz_serve.Attrib.register_obs a;
  let degraded () =
    List.filter_map
      (fun s ->
        match (s.Registry.s_name, s.Registry.s_labels, s.Registry.s_value) with
        | "vic_client_degraded_total", [ ("client", c) ], Registry.Counter n ->
            Some (c, n)
        | _ -> None)
      (Registry.collect ())
  in
  List.iter
    (fun client -> Dlz_serve.Attrib.record_degraded a ~client)
    [ "x"; "y"; "z"; "w"; "x"; " y " ];
  Alcotest.(check (list (pair string int)))
    "two named clients, the rest folded"
    [ ("other", 2); ("x", 2); ("y", 2) ]
    (degraded ());
  Registry.reset_all ();
  Alcotest.(check (list (pair string int))) "reset forgets" [] (degraded ());
  Dlz_serve.Attrib.record_degraded a ~client:"z";
  Alcotest.(check (list (pair string int)))
    "cap starts over" [ ("z", 1) ] (degraded ())

(* --- chaos battery ------------------------------------------------------- *)

(* Process-wide injection at the socket boundary (torn frames,
   disconnects, slow writes) and inside the engine, on both sides of
   the wire.  Injection-proof assertions only: every client
   terminates, the books balance, the daemon survives to answer a
   clean ping, and every server-side fault was contained (a counter,
   never a crash). *)
let chaos_battery seed () =
  let rep, _ =
    with_chaos ~seed ~rate:0.05 @@ fun () ->
    with_server
      ~cfg:
        {
          (Server.default_config loopback) with
          Server.workers = 2;
          queue_capacity = 16;
        }
      (fun addr ->
        Serve.load_gen ~addr ~clients:8 ~sessions:48 ~requests_per_session:4)
  in
  let r = rep in
  let classified =
    r.Serve.lg_ok + r.Serve.lg_shed + r.Serve.lg_draining + r.Serve.lg_errors
    + r.Serve.lg_transport
  in
  Alcotest.(check bool)
    "every request classified, none lost" true
    (classified >= r.Serve.lg_requests);
  Alcotest.(check bool) "some requests survived the faults" true (r.Serve.lg_ok > 0);
  Alcotest.(check int) "no connection left active" 0 (served "vic_serve_active");
  (* The daemon outlived the storm: a clean client gets a clean answer. *)
  let (), _ =
    without_chaos (fun () ->
        with_server (fun addr ->
            let c = connect addr in
            ping c;
            Client.close c))
      ()
  in
  ()

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping and stats round-trip" `Quick
            test_ping_and_stats;
          Alcotest.test_case "stats op refused as bad-request" `Quick
            test_stats_op_refused;
          Alcotest.test_case "unix socket serves and is cleaned up" `Quick
            test_unix_socket;
          Alcotest.test_case "wire query = in-process engine" `Quick
            test_query_matches_engine;
          Alcotest.test_case "analyze streams pairs then a summary" `Quick
            test_analyze_stream;
        ] );
      ( "containment",
        [
          Alcotest.test_case "bad JSON costs one reply, not the connection"
            `Quick test_bad_json_continues;
          Alcotest.test_case "an overflowing program is a bad request"
            `Quick test_overflow_is_bad_request;
          Alcotest.test_case "framing violation closes only that connection"
            `Quick test_malformed_frame_closes;
          Alcotest.test_case "oversize frame refused" `Quick
            test_oversize_frame_closes;
          Alcotest.test_case "mid-stream disconnect leaves others untouched"
            `Quick test_disconnect_mid_stream;
          Alcotest.test_case "slow-loris reclaimed by the idle timeout" `Quick
            test_slow_loris_timed_out;
        ] );
      ( "frame",
        [
          Alcotest.test_case "encode" `Quick test_frame_encode;
          Alcotest.test_case "several frames in one read" `Quick
            test_frames_in_one_read;
          Alcotest.test_case "length line split across writes" `Quick
            test_split_length_line;
          Alcotest.test_case "payload larger than the buffer" `Quick
            test_payload_past_buffer;
          Alcotest.test_case "too large before any payload" `Quick
            test_too_large_unread;
          Alcotest.test_case "eof between frames, io inside" `Quick
            test_eof_and_io;
          Alcotest.test_case "missing terminator" `Quick
            test_missing_terminator;
          Alcotest.test_case "receive timeout" `Quick test_receive_timeout;
          Alcotest.test_case "writer round trip" `Quick test_writer_round_trip;
        ] );
      ( "wire",
        [
          Alcotest.test_case "no Nagle wait on streamed replies" `Quick
            test_no_nagle_wait;
          Alcotest.test_case "reply past the write buffer" `Quick
            test_reply_past_buffer;
        ] );
      ( "admission",
        [
          Alcotest.test_case "overload sheds explicitly with a retry hint"
            `Quick test_overload_sheds_explicitly;
        ] );
      ( "budget",
        [
          Alcotest.test_case "tiny budget degrades but answers" `Quick
            test_tiny_budget_degrades_but_answers;
        ] );
      ( "drain",
        [
          Alcotest.test_case "shutdown drains, snapshots, restarts warm"
            `Quick test_shutdown_drains_and_warm_restarts;
        ] );
      ( "obs",
        [
          Alcotest.test_case "stats verb moves by exact deltas" `Quick
            test_stats_exact_deltas;
          Alcotest.test_case "stats books balance under chaos" `Quick
            test_stats_books_balance_under_chaos;
          Alcotest.test_case "rid round-trips response and trace spans" `Quick
            test_rid_roundtrip;
          Alcotest.test_case "metrics verb: attribution, order, determinism"
            `Quick test_metrics_verb_prom;
          Alcotest.test_case "serve and client counters pinned" `Quick
            test_serve_collector_golden;
          Alcotest.test_case "client cap folds newcomers into other" `Quick
            test_client_cap;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "battery at seed 7" `Quick (chaos_battery 7L);
          Alcotest.test_case "battery at seed 1234" `Quick
            (chaos_battery 1234L);
        ] );
    ]
