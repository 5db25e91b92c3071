module Budget = Dlz_base.Budget
module Trace = Dlz_base.Trace
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Engine = Dlz_engine.Engine
module Strategy = Dlz_engine.Strategy
module Cascade = Dlz_engine.Cascade
module Verdict = Dlz_deptest.Verdict
module Depgraph = Dlz_vec.Depgraph
module Parallel = Dlz_vec.Parallel

(* One connection, one [handle] call, on whichever worker domain took
   it off the admission queue.  The containment contract mirrors the
   cascade's: any fault while serving one request — a raising solver,
   a malformed frame, a vanished client, an injected chaos fault —
   costs at most that one connection one error response.  [handle]
   itself never raises. *)

type ctx = {
  metrics : Metrics.t;
  attrib : Attrib.t;  (* per-client attribution tables *)
  budget : Budget.t;  (* the server-lifetime budget requests carve from *)
  request_fuel : int option;  (* per-request ceilings (client may ask lower) *)
  request_timeout_ms : int option;
  max_frame : int;
  cascade : Cascade.t option;
  draining : unit -> bool;
  request_shutdown : unit -> unit;
}

(* The server-side request id: one process-wide monotonic counter, so
   a rid names a request uniquely across every connection and worker.
   It is echoed as the response's ["rid"] field and rides on the
   request's trace span (and, via [?annot], on the engine query spans
   it causes) — the correlation key between a client-observed response
   and the daemon's own telemetry. *)
let next_rid = Atomic.make 1
let fresh_rid () = Atomic.fetch_and_add next_rid 1

exception Conn_dead

(* Replies are queued on the connection's writer and written when the
   request ends ([flush]), or earlier when the queue fills.  Every
   frame we fail to deliver means the peer is gone; there is no point
   writing further responses, so sends raise [Conn_dead] and the
   per-connection loop winds down.  A frame is counted as sent once it
   is queued. *)
let delivered ctx = function
  | Ok () -> ()
  | Error _ ->
      Atomic.incr ctx.metrics.Metrics.disconnects;
      raise Conn_dead

let send ctx w payload = delivered ctx (Frame.add w payload)
let flush ctx w = delivered ctx (Frame.flush w)

let send_ok ctx w ?rid ~id ~op fields =
  send ctx w (Proto.ok ?rid ~id ~op fields);
  Atomic.incr ctx.metrics.Metrics.responses

let send_error ctx w ?rid ~id ~reason ?retry_after_ms msg =
  send ctx w (Proto.error ?rid ~id ~reason ?retry_after_ms msg);
  Atomic.incr ctx.metrics.Metrics.errors

(* A client may ask for less budget than the server's per-request
   ceiling, never more; [Budget.sub] additionally clamps the deadline
   to the server-lifetime budget's. *)
let request_budget ctx ~fuel ~timeout_ms =
  let min_opt a b =
    match (a, b) with
    | Some x, Some y -> Some (min x y)
    | Some x, None | None, Some x -> Some x
    | None, None -> None
  in
  Budget.sub
    ?fuel:(min_opt fuel ctx.request_fuel)
    ?timeout_ms:(min_opt timeout_ms ctx.request_timeout_ms)
    ctx.budget

let run_analyze ctx w ~rid ~client ~id ~lang ~source ~assume ~budget =
  let prog = Dlz_passes.Pipeline.load lang source in
  let env =
    List.fold_left (fun env (n, v) -> Assume.assume_ge n v env) Assume.empty
      assume
  in
  let accs, env = Access.of_program ~env prog in
  let cascade = Option.value ctx.cascade ~default:Cascade.delin in
  (* One pair pass, serial on purpose: the daemon's parallelism is
     across connections, and a worker must not re-enter a pool.  Every
     query span it spawns carries the request id.  Then one frame per
     pair and a summary whose counts and loop report read the same
     answers; the frames leave when the request ends or the write
     buffer fills. *)
  let results =
    Engine.query_all ~cascade ~budget
      ~annot:[ ("rid", string_of_int rid); ("client", client) ]
      ~observer:(Attrib.record_disposition ctx.attrib ~client)
      ~env accs
  in
  List.iter
    (fun ((p : Engine.pair), r) ->
      if r.Strategy.degraded <> [] then
        Attrib.record_degraded ctx.attrib ~client;
      send_ok ctx w ~rid ~id ~op:"pair"
        ([
           ("src", Jsonx.Str p.Engine.src.Access.stmt_name);
           ("src_array", Jsonx.Str p.Engine.src.Access.array);
           ("dst", Jsonx.Str p.Engine.dst.Access.stmt_name);
           ("self", Jsonx.Bool p.Engine.self);
         ]
        @ Proto.result_fields r))
    results;
  let count v =
    Jsonx.Int
      (List.length
         (List.filter (fun (_, r) -> r.Strategy.verdict = v) results))
  in
  let loops = Parallel.of_graph prog (Depgraph.of_results accs results) in
  let par = List.length (List.filter (fun l -> l.Parallel.lr_parallel) loops) in
  send_ok ctx w ~rid ~id ~op:"analyze"
    [
      ("pairs", Jsonx.Int (List.length results));
      ("independent", count Verdict.Independent);
      ("dependent", count Verdict.Dependent);
      ("inapplicable", count Verdict.Inapplicable);
      ("accesses", Jsonx.Int (List.length accs));
      ("loops_parallel", Jsonx.Int par);
      ("loops_serial", Jsonx.Int (List.length loops - par));
      ("done", Jsonx.Bool true);
    ]

(* [true] to keep reading from this connection. *)
let dispatch ctx w ~rid ~client ~id req =
  match req with
  | Proto.Ping ->
      send_ok ctx w ~rid ~id ~op:"ping" [];
      true
  | Proto.Metrics { format } ->
      (* The JSON body is the Snap object; the Prometheus body travels
         as a string field, so the frame is one JSON object either way. *)
      let samples = Dlz_obs.Registry.collect () in
      send_ok ctx w ~rid ~id ~op:"metrics"
        (match format with
        | `Prom ->
            [ ("format", Jsonx.Str "prom");
              ("body", Jsonx.Str (Dlz_obs.Prom.to_string samples)) ]
        | `Json ->
            [ ("format", Jsonx.Str "json");
              ("metrics", Dlz_obs.Snap.to_json samples) ]);
      true
  | Proto.Shutdown ->
      send_ok ctx w ~rid ~id ~op:"shutdown" [ ("draining", Jsonx.Bool true) ];
      ctx.request_shutdown ();
      false
  | Proto.Query { problem; fuel; timeout_ms } ->
      let budget = request_budget ctx ~fuel ~timeout_ms in
      let r =
        Engine.query
          ?cascade:ctx.cascade
          ~annot:[ ("rid", string_of_int rid); ("client", client) ]
          ~observer:(Attrib.record_disposition ctx.attrib ~client)
          ~budget ~env:Assume.empty problem
      in
      if r.Strategy.degraded <> [] then
        Attrib.record_degraded ctx.attrib ~client;
      send_ok ctx w ~rid ~id ~op:"query" (Proto.result_fields r);
      true
  | Proto.Analyze { lang; source; assume; fuel; timeout_ms } ->
      let budget = request_budget ctx ~fuel ~timeout_ms in
      run_analyze ctx w ~rid ~client ~id ~lang ~source ~assume ~budget;
      true

let handle_request ctx w ~rid ~client ~id req =
  (* The request span (empty category — never masked out): the rid on
     its args is the same rid the response echoes, so a trace stream
     and a client log correlate line by line.  The thunk closes over
     immutable data only; it renders at export, not here. *)
  let op = Proto.op_name req in
  let sp =
    Trace.start
      ~lazy_args:(fun () ->
        [ ("rid", string_of_int rid); ("op", op); ("client", client) ])
      "serve.request"
  in
  Fun.protect
    ~finally:(fun () -> Trace.finish sp)
    (fun () ->
      try dispatch ctx w ~rid ~client ~id req with
      | Conn_dead -> false
      | e -> (
          Atomic.incr ctx.metrics.Metrics.contained;
          let reply reason msg =
            Attrib.record_error ctx.attrib ~client ~reason;
            try
              send_error ctx w ~rid ~id ~reason msg;
              true
            with Conn_dead -> false
          in
          match Dlz_passes.Input_error.describe e with
          | Some m -> reply "bad-request" m
          | None -> (
              match e with
              | Budget.Exhausted r -> reply "timeout" ("budget exhausted: " ^ r)
              | Out_of_memory -> reply "internal" "out of memory"
              | Stack_overflow -> reply "internal" "stack overflow"
              | e -> reply "internal" (Printexc.to_string e))))

let handle ctx fd =
  Atomic.incr ctx.metrics.Metrics.active;
  let r = Frame.reader fd and w = Frame.writer fd in
  (* The one reply before a connection closes, best effort. *)
  let last_word reason msg =
    try
      send_error ctx w ~id:Jsonx.Null ~reason msg;
      flush ctx w
    with Conn_dead -> ()
  in
  let rec loop () =
    if ctx.draining () then ()
    else
      match Frame.read ~max_bytes:ctx.max_frame r with
      | Error Frame.Eof -> ()
      | Error Frame.Timeout ->
          (* Idle or slow-loris past the receive timeout: tell the
             peer and hang up. *)
          Atomic.incr ctx.metrics.Metrics.timeouts;
          last_word "timeout" "read timed out"
      | Error (Frame.Too_large n) ->
          Atomic.incr ctx.metrics.Metrics.malformed;
          last_word "protocol"
            (Printf.sprintf "frame of %d bytes exceeds %d" n ctx.max_frame)
      | Error (Frame.Malformed m) ->
          (* Framing is lost: the stream cannot resync, so one error
             frame and the connection closes. *)
          Atomic.incr ctx.metrics.Metrics.malformed;
          last_word "protocol" m
      | Error (Frame.Io _) -> Atomic.incr ctx.metrics.Metrics.disconnects
      | Ok payload -> (
          Atomic.incr ctx.metrics.Metrics.requests;
          (* Every well-framed request gets a rid, even one whose JSON
             or shape turns out bad — the error reply still correlates. *)
          let rid = fresh_rid () in
          let t0 = Trace.now_ns () in
          let client = ref Attrib.default_client in
          let verb = ref "invalid" in
          let continue =
            match Jsonx.parse payload with
            | Error m ->
                (* The framing held, only the JSON inside is bad: one
                   error reply and the connection may continue. *)
                Atomic.incr ctx.metrics.Metrics.malformed;
                Attrib.record_error ctx.attrib ~client:!client
                  ~reason:"bad-request";
                (try
                   send_error ctx w ~rid ~id:Jsonx.Null ~reason:"bad-request"
                     ("json: " ^ m);
                   true
                 with Conn_dead -> false)
            | Ok j -> (
                client := Proto.client_of j;
                match Proto.parse_request j with
                | id, Error m -> (
                    Attrib.record_error ctx.attrib ~client:!client
                      ~reason:"bad-request";
                    try
                      send_error ctx w ~rid ~id ~reason:"bad-request" m;
                      true
                    with Conn_dead -> false)
                | id, Ok req ->
                    verb := Proto.op_name req;
                    handle_request ctx w ~rid ~client:!client ~id req)
          in
          (* The reply leaves in one write, a shutdown's too. *)
          let continue =
            match flush ctx w with
            | () -> continue
            | exception Conn_dead -> false
          in
          let dt = Int64.sub (Trace.now_ns ()) t0 in
          Trace.observe_ns "serve.request" dt;
          Attrib.observe_request ctx.attrib ~client:!client ~verb:!verb dt;
          if continue then loop ())
  in
  (try loop () with e ->
    (* Nothing below should leak, but the worker domain must survive
       anything. *)
    Atomic.incr ctx.metrics.Metrics.contained;
    ignore (Printexc.to_string e));
  Atomic.decr ctx.metrics.Metrics.active
