(* serve-mix: an in-process daemon (default configuration, two workers)
   on loopback TCP, driven by two client threads that each keep one
   connection open in a closed loop, because a compiler calling the
   daemon waits for each reply.  The seeded requests (see
   [Inputs.serve_requests]) are 6/8 query, 1/8 ping and 1/8 analyze of
   a corpus kernel: 200 warm-up requests, untimed, then 4032 timed ones.
   The timed list is sent in passes for as long as the run lasts, and
   the query cache is cleared before each pass, while the clients are
   idle: every query of a pass is a distinct problem, solved as in
   query-stream, and only a kernel's later analyzes in a pass hit.  The
   only workload where framing and transport count.  An operation and a
   latency sample are one client-observed request.

   A request whose reply is a single frame (ping, query) waits on no
   TCP timer: its latency is computation and is corrected to nominal
   host speed (see [Hostspeed]), measured before each quarter second of
   load.
   An analyze reply streams one frame per pair, and the kernel holds
   small segments back until earlier ones are acknowledged (Nagle)
   while the client delays its acknowledgement; that wait is a timer,
   which does not run slower when the host does, so those latencies
   and the throughput, which they dominate, are reported as measured. *)

open Harness
module Engine = Dlz_engine.Engine
module Server = Dlz_serve.Server
module Client = Dlz_serve.Client
module Attrib = Dlz_serve.Attrib
module Jsonx = Dlz_serve.Jsonx
module Proto = Dlz_serve.Proto
module Frame = Dlz_serve.Frame
module Eqgen = Dlz_oracle.Eqgen
module Access = Dlz_ir.Access

let clients = Inputs.clients

(* Latency samples kept per client: more than a minute of requests. *)
let client_cap = 1 lsl 15

(* A reply as the checks read it, without the server's request id: the
   single frame of a ping or a query, or an analyze's summary frame and
   the number of pair frames before it. *)
type reply = Single of Jsonx.t | Stream of Jsonx.t * int

let strip_rid = function
  | Jsonx.Obj kv -> Jsonx.Obj (List.remove_assoc "rid" kv)
  | j -> j

let reply_of frames =
  match List.rev frames with
  | [ f ] -> Single (strip_rid f)
  | summary :: pairs -> Stream (strip_rid summary, List.length pairs)
  | [] -> Stream (Jsonx.Null, 0)

(* Per-client tallies; each thread owns one, so nothing is shared. *)
type per_op = { lat : Stats.Samples.t; mutable frames : int }

type acc = {
  samples : Stats.Samples.t;
  mutable attempted : int;
  mutable failed : int;
  mutable speed_sum : float;  (** Sum of the factors applied to the samples. *)
  ops : (string, per_op) Hashtbl.t;
  replies : (int, reply list) Hashtbl.t;  (** The distinct replies to each request id. *)
}

let new_acc () =
  {
    samples = Stats.Samples.create client_cap;
    attempted = 0;
    failed = 0;
    speed_sum = 0.;
    ops = Hashtbl.create 4;
    replies = Hashtbl.create 4096;
  }

let per_op acc name =
  match Hashtbl.find_opt acc.ops name with
  | Some p -> p
  | None ->
      let p = { lat = Stats.Samples.create client_cap; frames = 0 } in
      Hashtbl.add acc.ops name p;
      p

let ok_frames frames =
  match List.rev frames with
  | last :: _ -> Jsonx.member "ok" last = Some (Jsonx.Bool true)
  | [] -> false

(* The library calls [Session.dispatch] makes for one request, in-process
   and without a socket, with the same request annotations, cache
   observer and per-client attribution.  Request decoding and reply
   encoding are the codec layer, the rest is the service, split by
   layer.  Left out, and so booked to the wire: the frame reads and
   writes, the request span and the server's own counters. *)
let replay layers ~(cfg : Server.config) ~attrib ~rid (r : Inputs.request) =
  let span name f = Layers.span layers name f in
  let payload = Jsonx.to_string r.Inputs.json in
  let client, (id, parsed) =
    span "serve.codec" (fun () ->
        match Jsonx.parse payload with
        | Ok j -> (Proto.client_of j, Proto.parse_request j)
        | Error e -> failwith ("replay: " ^ e))
  in
  let req = match parsed with Ok q -> q | Error e -> failwith ("replay: " ^ e) in
  incr rid;
  let t0 = now_ns () in
  let annot = [ ("rid", string_of_int !rid); ("client", client) ] in
  let observer = Attrib.record_disposition attrib ~client in
  let reply op fields =
    ignore (span "serve.codec" (fun () -> Frame.encode (Proto.ok ~rid:!rid ~id ~op fields)))
  in
  (* The per-request budget a session carves from the server's. *)
  let budget () =
    Budget.sub ?fuel:cfg.Server.request_fuel ?timeout_ms:cfg.Server.request_timeout_ms
      Budget.unlimited
  in
  let query ~budget ~env problem =
    let res =
      span "engine" (fun () ->
          Engine.query ?cascade:cfg.Server.cascade ~budget ~annot ~observer ~env problem)
    in
    if res.Strategy.degraded <> [] then Attrib.record_degraded attrib ~client;
    res
  in
  (match req with
  | Proto.Query { problem; _ } ->
      let res = query ~budget:(budget ()) ~env:Assume.empty problem in
      reply "query" (Proto.result_fields res)
  | Proto.Analyze { source; _ } ->
      let budget = budget () in
      let ast = span "frontend" (fun () -> Dlz_frontend.C_parser.parse source) in
      let prog = span "passes" (fun () -> Dlz_passes.Pointers.lower ast) in
      let prog = span "passes" (fun () -> Dlz_passes.Pipeline.prepare_program prog) in
      let accs, env = span "ir" (fun () -> Access.of_program ~env:Assume.empty prog) in
      let pairs = ref 0 and verdicts = Hashtbl.create 3 in
      Engine.iter_pairs
        (fun (p : Engine.pair) ->
          let res = query ~budget ~env p.Engine.problem in
          incr pairs;
          let v = res.Strategy.verdict in
          Hashtbl.replace verdicts v (1 + Option.value (Hashtbl.find_opt verdicts v) ~default:0);
          reply "pair"
            ([
               ("src", Jsonx.Str p.Engine.src.Access.stmt_name);
               ("src_array", Jsonx.Str p.Engine.src.Access.array);
               ("dst", Jsonx.Str p.Engine.dst.Access.stmt_name);
               ("self", Jsonx.Bool p.Engine.self);
             ]
            @ Proto.result_fields res))
        accs;
      let cascade = Option.value cfg.Server.cascade ~default:Cascade.delin in
      let loops =
        span "vec" (fun () -> Dlz_vec.Parallel.report ~cascade ~budget ~env prog)
      in
      let par = List.length (List.filter (fun l -> l.Dlz_vec.Parallel.lr_parallel) loops) in
      let count v = Jsonx.Int (Option.value (Hashtbl.find_opt verdicts v) ~default:0) in
      reply "analyze"
        [
          ("pairs", Jsonx.Int !pairs);
          ("independent", count Dlz_deptest.Verdict.Independent);
          ("dependent", count Dlz_deptest.Verdict.Dependent);
          ("inapplicable", count Dlz_deptest.Verdict.Inapplicable);
          ("accesses", Jsonx.Int (List.length accs));
          ("loops_parallel", Jsonx.Int par);
          ("loops_serial", Jsonx.Int (List.length loops - par));
          ("done", Jsonx.Bool true);
        ]
  | _ -> reply (Proto.op_name req) []);
  Attrib.observe_request attrib ~client ~verb:(Proto.op_name req) (Int64.sub (now_ns ()) t0)

(* The dependence claim of a served query reply, decoded with the
   printers [Proto.result_fields] encodes it with; [None] when the reply
   does not decode. *)
let claim reply =
  let module Verdict = Dlz_deptest.Verdict in
  let module Dirvec = Dlz_deptest.Dirvec in
  let decode print values s = List.find_opt (fun v -> print v = s) values in
  let dirvec s =
    let inner = String.sub s 1 (String.length s - 2) in
    let parts = if inner = "" then [] else String.split_on_char ',' inner in
    let dirs =
      List.map
        (fun d ->
          decode Dirvec.dir_to_string Dirvec.[ Lt; Eq; Gt; Le; Ge; Ne; Star ] (String.trim d))
        parts
    in
    if List.mem None dirs then None else Some (Array.of_list (List.filter_map Fun.id dirs))
  in
  let distance j =
    match (Option.bind (Jsonx.member "level" j) Jsonx.to_int, Jsonx.member "distance" j) with
    | Some l, Some (Jsonx.Int d) -> Some (l, d)
    | _ -> None
  in
  let all f l =
    let r = List.map f l in
    if List.mem None r then None else Some (List.filter_map Fun.id r)
  in
  let field k conv = Option.bind (Jsonx.member k reply) conv in
  match
    ( field "verdict" (fun j ->
          Option.bind (Jsonx.to_str j)
            (decode Verdict.to_string Verdict.[ Independent; Dependent; Inapplicable ])),
      field "dirvecs" (fun j ->
          Option.bind (Jsonx.to_list j) (all (fun d -> Option.bind (Jsonx.to_str d) dirvec))),
      field "distances" (fun j -> Option.bind (Jsonx.to_list j) (all distance)) )
  with
  | Some verdict, Some dirvecs, Some distances -> Some (verdict, dirvecs, distances)
  | _ -> None

(* Whether an analyze reply's summary and pair count differ from the
   kernel's golden line. *)
let analyze_mismatch summary pairs golden =
  let int j path =
    List.fold_left (fun j k -> Option.bind j (Jsonx.member k)) (Some j) path
    |> Fun.flip Option.bind Jsonx.to_int
  in
  List.exists
    (fun (got, want) -> int summary [ got ] <> int golden want)
    [
      ("pairs", [ "pairs" ]);
      ("independent", [ "verdicts"; "independent" ]);
      ("dependent", [ "verdicts"; "dependent" ]);
      ("inapplicable", [ "verdicts"; "inapplicable" ]);
      ("loops_parallel", [ "loops"; "parallel" ]);
      ("loops_serial", [ "loops"; "serial" ]);
    ]
  || Some pairs <> int golden [ "pairs" ]

let setup ~seed =
  Engine.reset_metrics ();
  let warmup, timed = Inputs.serve_requests ~seed in
  let share = Array.length timed / clients in
  let golden = Inputs.golden_by_file () in
  let cfg = Server.default_config (Dlz_serve.Addr.Tcp ("127.0.0.1", 0)) in
  let srv =
    match Server.start cfg with Ok s -> s | Error e -> failwith ("server start: " ^ e)
  in
  let connect () =
    match Client.connect (Server.address srv) with
    | Ok c -> c
    | Error e -> failwith ("connect: " ^ e)
  in
  let conns = Array.init clients (fun _ -> connect ()) in
  (* Client [c] sends entries c, c + clients, ... of a list, from its
     position [pos.(c)] on, until its share or the time runs out. *)
  let pos = Array.make clients 0 in
  let client c acc reqs ~until ~speed =
    let rec loop () =
      let i = c + (clients * pos.(c)) in
      if i < Array.length reqs && now () < until then begin
        pos.(c) <- pos.(c) + 1;
        let r = reqs.(i) in
        acc.attempted <- acc.attempted + 1;
        let t0 = now_ns () in
        let res =
          match Client.send conns.(c) r.Inputs.json with
          | Ok () -> Client.read_stream conns.(c)
          | Error e -> Error e
        in
        let ns = since_ns t0 in
        (match res with
        | Ok frames when ok_frames frames ->
            let ms = ns /. 1e6 in
            let f = match frames with [ _ ] -> speed | _ -> 1. in
            Stats.Samples.add acc.samples (ms *. f);
            acc.speed_sum <- acc.speed_sum +. f;
            let p = per_op acc (Inputs.op_name r.Inputs.op) in
            Stats.Samples.add p.lat ms;
            p.frames <- p.frames + List.length frames;
            let reply = reply_of frames in
            let seen = Option.value (Hashtbl.find_opt acc.replies r.Inputs.id) ~default:[] in
            if not (List.mem reply seen) then Hashtbl.replace acc.replies r.Inputs.id (reply :: seen)
        | Ok _ -> acc.failed <- acc.failed + 1
        | Error _ ->
            acc.failed <- acc.failed + 1;
            Client.close conns.(c);
            conns.(c) <- connect ());
        loop ()
      end
    in
    loop ()
  in
  (* Both clients at once, each on its own thread. *)
  let drive accs reqs ~until ~speed =
    let t0 = now_ns () in
    let threads =
      List.init clients (fun c ->
          Thread.create (fun () -> client c accs.(c) reqs ~until ~speed) ())
    in
    List.iter Thread.join threads;
    since_ns t0
  in
  (* A pass starts with no client mid-list and an empty query cache. *)
  let new_pass () =
    Array.fill pos 0 clients 0;
    Dlz_engine.Query.clear Dlz_engine.Query.global_cache
  in
  let new_accs () = Array.init clients (fun _ -> new_acc ()) in
  (* Every client tally so far, for the checks. *)
  let all_accs = ref [] in
  let warm = new_accs () in
  all_accs := Array.to_list warm;
  ignore (drive warm warmup ~until:infinity ~speed:1.);
  let passes = ref 0 in
  (* Load in quarter-second stretches, with the host speed measured
     before each while the clients are idle. *)
  let serve ~until =
    let accs = new_accs () and meter = Hostspeed.meter () in
    all_accs := Array.to_list accs @ !all_accs;
    new_pass ();
    let rec go ns =
      let speed = Hostspeed.factor meter in
      let ns = ns +. drive accs timed ~until:(Float.min until (now () +. 0.25)) ~speed in
      if Array.for_all (fun p -> p >= share) pos then begin
        incr passes;
        new_pass ()
      end;
      if now () < until then go ns else ns
    in
    let ns = go 0. in
    let accs = Array.to_list accs in
    let sum f = List.fold_left (fun n a -> n + f a) 0 accs in
    let ok = sum (fun a -> a.attempted - a.failed) in
    ( {
        ops = ok;
        busy_s = ns /. 1e9;
        latency_ms = Array.concat (List.map (fun a -> Stats.Samples.to_array a.samples) accs);
        attempted = sum (fun a -> a.attempted);
        failed = sum (fun a -> a.failed);
        speed = ratio (List.fold_left (fun s a -> s +. a.speed_sum) 0. accs) (fi ok);
      },
      accs )
  in
  let run ~until = fst (serve ~until) in
  let traced ~until =
    (* First half: served requests, per-op client latency and frames,
       engine counters.  Second half: the timed list replayed
       in-process, untraced and traced in turn, each from an empty
       cache like a served pass. *)
    let c0 = counters () in
    let m, accs = serve ~until:(now () +. ((until -. now ()) /. 2.)) in
    let c1 = counters () in
    let op_stats name =
      let parts = List.filter_map (fun a -> Hashtbl.find_opt a.ops name) accs in
      let lat = Array.concat (List.map (fun p -> Stats.Samples.to_array p.lat) parts) in
      let frames = List.fold_left (fun n p -> n + p.frames) 0 parts in
      (lat, frames)
    in
    let on = Layers.create ~on:true and off = Layers.create ~on:false in
    let attrib = Attrib.create () and rid = ref 0 in
    let per_req = Hashtbl.create 4 in
    let replays = ref 0 and traced_ns = ref 0. and plain_ns = ref 0. in
    let rec loop () =
      new_pass ();
      let t0 = now_ns () in
      Array.iter (replay off ~cfg ~attrib ~rid) timed;
      plain_ns := !plain_ns +. since_ns t0;
      new_pass ();
      let t0 = now_ns () in
      Array.iter
        (fun r ->
          let codec0 = Layers.ns on "serve.codec" and q0 = now_ns () in
          replay on ~cfg ~attrib ~rid r;
          let total = since_ns q0 and codec = Layers.ns on "serve.codec" -. codec0 in
          let name = Inputs.op_name r.Inputs.op in
          let n, c, s = Option.value (Hashtbl.find_opt per_req name) ~default:(0, 0., 0.) in
          Hashtbl.replace per_req name (n + 1, c +. codec, s +. total -. codec))
        timed;
      traced_ns := !traced_ns +. since_ns t0;
      incr replays;
      if now () < until then loop ()
    in
    loop ();
    let replayed = fi (!replays * Array.length timed) in
    let mean name = Layers.ns on name /. replayed in
    let service_mean =
      Hashtbl.fold (fun _ (_, _, s) acc -> acc +. s) per_req 0. /. replayed
    in
    let client_mean_ns =
      ratio (Array.fold_left ( +. ) 0. m.latency_ms) (fi (Array.length m.latency_ms)) *. 1e6
    in
    let ops = [ "analyze"; "ping"; "query" ] in
    let analyze_pairs =
      let lat, frames = op_stats "analyze" in
      frames - Array.length lat
    in
    let query_reqs = Array.length (fst (op_stats "query")) in
    (* [Engine.query] calls in the engine span of one replay: one per
       query, one per analyzed pair. *)
    let replay_queries =
      Array.fold_left
        (fun n (r : Inputs.request) ->
          match r.Inputs.op with
          | Inputs.Query _ -> n + 1
          | Inputs.Analyze f ->
              n
              + Option.value ~default:0
                  (Option.bind (Jsonx.member "pairs" (List.assoc f golden)) Jsonx.to_int)
          | Inputs.Ping -> n)
        0 timed
    in
    let probe =
      probe
        (Array.of_list
           (Array.fold_right
              (fun (r : Inputs.request) acc ->
                match r.Inputs.op with
                | Inputs.Query c -> (Assume.empty, Problem.synthetic c.Eqgen.ground) :: acc
                | _ -> acc)
              timed []))
    in
    let codec = mean "serve.codec" in
    ( m,
      [
        metric "engine.query_us" "us"
          (Layers.ns on "engine" /. fi (!replays * replay_queries) /. 1e3);
      ]
      @ probe
      @ engine_metrics ~pairs:(query_reqs + analyze_pairs) c0 c1
      @ shares ~wall_ns:client_mean_ns
          [
            ("serve.codec", codec);
            ("frontend", mean "frontend");
            ("passes", mean "passes");
            ("ir", mean "ir");
            ("engine", mean "engine");
            ("vec", mean "vec");
            ("serve.wire", client_mean_ns -. codec -. service_mean);
          ]
      @ [ trace_overhead ~traced:!traced_ns ~untraced:!plain_ns ]
      @ [ metric "serve.codec_us" "us" (codec /. 1e3) ]
      @ List.concat_map
          (fun op ->
            let lat, frames = op_stats op in
            let n, c, s = Option.value (Hashtbl.find_opt per_req op) ~default:(0, 0., 0.) in
            let client_p50 = Stats.median lat in
            let codec_ms = ratio c (fi n) /. 1e6 and service_ms = ratio s (fi n) /. 1e6 in
            [
              metric ("serve.service_us." ^ op) "us" (service_ms *. 1e3);
              metric ("serve.client_p50_ms." ^ op) "ms" client_p50;
              metric ("serve.wire_gap_ms." ^ op) "ms" (client_p50 -. service_ms -. codec_ms);
              metric ("serve.frames_per_reply." ^ op) "count"
                (ratio (fi frames) (fi (Array.length lat)));
            ])
          ops )
  in
  let checks () =
    (* Every distinct reply each request got, warm-up included.  A query
       may get more than one: near-overflow problems that share a cache
       key can be answered differently depending on which was solved
       first in a pass; each answer is checked. *)
    let replies = Hashtbl.create 8192 in
    List.iter
      (fun a ->
        Hashtbl.iter
          (fun id rs ->
            let seen = Option.value (Hashtbl.find_opt replies id) ~default:[] in
            Hashtbl.replace replies id
              (List.filter (fun r -> not (List.mem r seen)) rs @ seen))
          a.replies)
      !all_accs;
    let t = tally () and checked = ref 0 and wrong = ref [] and varied = ref 0 in
    Array.iter
      (fun (r : Inputs.request) ->
        let rs = Option.value (Hashtbl.find_opt replies r.Inputs.id) ~default:[] in
        if List.length rs > 1 then incr varied;
        List.iter
          (fun reply ->
            incr checked;
            match (r.Inputs.op, reply) with
            | Inputs.Query c, Single j -> (
                match claim j with
                | Some (verdict, dirvecs, distances) ->
                    verify t ~id:c.Eqgen.id c.Eqgen.ground ~verdict ~dirvecs ~distances
                | None -> wrong := c.Eqgen.id :: !wrong)
            | Inputs.Analyze f, Stream (summary, pairs) ->
                if analyze_mismatch summary pairs (List.assoc f golden) then wrong := f :: !wrong
            | Inputs.Ping, Single _ -> ()
            | _ -> wrong := Printf.sprintf "request %d: reply shape" r.Inputs.id :: !wrong)
          rs)
      (Array.append warmup timed);
    [
      {
        what = "replies";
        ok = !wrong = [];
        detail =
          Printf.sprintf
            "%d distinct replies to %d requests (%d with more than one) decoded, analyze \
             summaries equal the golden%s"
            !checked (Hashtbl.length replies) !varied
            (match !wrong with w :: _ -> "; first wrong: " ^ w | [] -> "");
      };
      tally_check "oracle" t;
    ]
  in
  let teardown () =
    Array.iter Client.close conns;
    Server.stop srv;
    ignore (Server.join srv);
    Engine.reset_metrics ()
  in
  { run; traced; checks; teardown }
