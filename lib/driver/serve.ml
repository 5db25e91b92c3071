module Trace = Dlz_base.Trace
module Depeq = Dlz_deptest.Depeq
module Problem = Dlz_deptest.Problem
module Addr = Dlz_serve.Addr
module Client = Dlz_serve.Client
module Jsonx = Dlz_obs.Jsonx
module Metrics = Dlz_serve.Metrics
module Proto = Dlz_serve.Proto
module Server = Dlz_serve.Server

(* {2 CLI runner} *)

let run_cli ?(stats_json = false) ?(quiet = false) cfg =
  match Server.start cfg with
  | Error m ->
      Printf.eprintf "vic serve: %s\n%!" m;
      exit 1
  | Ok srv ->
      let stop _ = Server.stop srv in
      (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
       with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
       with Invalid_argument _ -> ());
      if not quiet then
        Printf.printf "vic serve: listening on %s (%d workers, queue %d)\n%!"
          (Addr.to_string (Server.address srv))
          (max 1 cfg.Server.workers) cfg.Server.queue_capacity;
      (* Sleep-poll instead of blocking in [join]: [sleepf] is
         interrupted by signals, so SIGTERM turns into the drain flag
         promptly even while idle. *)
      while not (Server.stopped srv) do
        Unix.sleepf 0.2
      done;
      let s = Server.join srv in
      (match s.Server.sm_saved with
      | Some (Ok n) when not quiet ->
          Printf.eprintf "vic serve: drain snapshot saved (%d entries)\n%!" n
      | Some (Error m) ->
          Printf.eprintf "vic serve: drain snapshot failed: %s\n%!" m
      | _ -> ());
      if stats_json then
        (* The same Snap line a `metrics` scrape in json format carries:
           daemon, engine and per-client counters plus the latency
           histograms. *)
        print_endline
          (Jsonx.to_string (Dlz_obs.Snap.to_json (Dlz_obs.Registry.collect ())))
      else if not quiet then begin
        let m = s.Server.sm_metrics in
        Printf.eprintf
          "vic serve: %d connections (%d shed, %d refused draining), %d \
           requests, %d responses, %d errors\n\
           %!"
          m.Metrics.s_accepted m.Metrics.s_shed m.Metrics.s_rejected_draining
          m.Metrics.s_requests m.Metrics.s_responses m.Metrics.s_errors
      end

(* {2 Stats poller}

   The client side of the [metrics] verb: one scrape per round trip,
   printed as received (Prometheus text or the Snap JSON line), so
   [vic stats] composes with curl-style tooling and [--watch] makes a
   live poller out of it. *)

let fetch_metrics ~addr ~format =
  match Client.connect ~timeout_ms:10_000 addr with
  | Error m -> Error m
  | Ok c ->
      let req =
        Jsonx.Obj
          [
            ("op", Jsonx.Str "metrics");
            ( "format",
              Jsonx.Str (match format with `Prom -> "prom" | `Json -> "json")
            );
            ("client", Jsonx.Str "vic-stats");
          ]
      in
      let r = Client.request c req in
      Client.close c;
      (match r with
      | Error _ as e -> e
      | Ok j -> (
          match Jsonx.member "ok" j with
      | Some (Jsonx.Bool true) -> (
          match format with
          | `Prom -> (
              match Option.bind (Jsonx.member "body" j) Jsonx.to_str with
              | Some body -> Ok body
              | None -> Error "metrics response carried no body")
          | `Json -> (
              match Jsonx.member "metrics" j with
              | Some m -> Ok (Jsonx.to_string m ^ "\n")
              | None -> Error "metrics response carried no metrics object"))
          | _ -> (
              match Option.bind (Jsonx.member "error" j) Jsonx.to_str with
              | Some m -> Error m
              | None -> Error "malformed metrics response")))

let run_stats ~addr ~format ~watch ~interval_ms ~count () =
  let interval = float_of_int (max 100 interval_ms) /. 1000. in
  (* --watch: poll until interrupted (or --count scrapes); otherwise
     one scrape, and a failed one is a failed command. *)
  let rec go i =
    let last = (not watch) || (count > 0 && i = count - 1) in
    (match fetch_metrics ~addr ~format with
    | Ok body ->
        print_string body;
        if watch && not last then print_newline ();
        flush stdout
    | Error m ->
        Printf.eprintf "vic stats: %s\n%!" m;
        if not watch then exit 1);
    if not last then begin
      Unix.sleepf interval;
      go (i + 1)
    end
  in
  go 0

(* {2 Load generator}

   A thread fleet of simulated clients.  Threads, not domains: a
   client spends its life blocked in socket I/O, which threads
   interleave fine, and thousands of them fit where domains cannot
   (the runtime caps domains at ~128). *)

type workload = Ping | Query | Analyze | Mix

type report = {
  lg_sessions : int;  (* sessions attempted *)
  lg_requests : int;  (* requests sent *)
  lg_ok : int;  (* requests answered ok:true *)
  lg_degraded : int;  (* ...of which carried degradations *)
  lg_shed : int;  (* overloaded replies *)
  lg_draining : int;  (* draining replies *)
  lg_errors : int;  (* other ok:false replies *)
  lg_transport : int;  (* connects or reads that died *)
  lg_elapsed_ns : int64;
  lg_latencies_ns : int64 array;  (* sorted; one per answered request *)
}

let percentile r p =
  let n = Array.length r.lg_latencies_ns in
  if n = 0 then 0L
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    r.lg_latencies_ns.(max 0 (min (n - 1) rank))

let throughput r =
  if Int64.compare r.lg_elapsed_ns 0L <= 0 then 0.
  else
    float_of_int r.lg_ok /. (Int64.to_float r.lg_elapsed_ns /. 1e9)

(* Distinct canonical forms so cache behaviour is visible: the paper
   family at several depths/shifts, the shape the engine is fastest
   at delinearizing. *)
let query_pool =
  lazy
    (Array.init 16 (fun k ->
         let depth = 1 + (k mod 4) in
         let extent = if k mod 8 < 4 then 8 else 12 in
         let shifted = k >= 8 in
         let eq = Workload.paper_family ~depth ~extent ~shifted in
         let np =
           Problem.numeric_of_equations ~n_common:depth
             ~common_ubs:(Array.make depth ((extent / 2) - 1))
             [ eq ]
         in
         Proto.problem_to_json np))

let analyze_pool =
  lazy
    (Array.init 4 (fun k ->
         Workload.family_program ~depth:(1 + (k mod 2)) ~extent:(6 + (2 * k))))

let build_request ~workload ~fuel ~timeout_ms ~session ~req =
  let n = (session * 1_000_000) + req in
  let extra =
    (match fuel with Some f -> [ ("fuel", Jsonx.Int f) ] | None -> [])
    @
    match timeout_ms with
    | Some ms -> [ ("timeout_ms", Jsonx.Int ms) ]
    | None -> []
  in
  let kind =
    match workload with
    | Ping -> `Ping
    | Query -> `Query
    | Analyze -> `Analyze
    | Mix -> (
        (* Query-heavy, like a compiler: mostly queries, a sprinkle of
           whole-program analyzes and pings. *)
        match n mod 8 with 0 -> `Ping | 7 -> `Analyze | _ -> `Query)
  in
  match kind with
  | `Ping -> Jsonx.Obj ([ ("op", Jsonx.Str "ping"); ("id", Jsonx.Int n) ] @ extra)
  | `Query ->
      let pool = Lazy.force query_pool in
      Jsonx.Obj
        ([
           ("op", Jsonx.Str "query");
           ("id", Jsonx.Int n);
           ("problem", pool.(n mod Array.length pool));
         ]
        @ extra)
  | `Analyze ->
      let pool = Lazy.force analyze_pool in
      Jsonx.Obj
        ([
           ("op", Jsonx.Str "analyze");
           ("id", Jsonx.Int n);
           ("lang", Jsonx.Str "f");
           ("source", Jsonx.Str pool.(n mod Array.length pool));
         ]
        @ extra)

type acc = {
  mutable a_requests : int;
  mutable a_ok : int;
  mutable a_degraded : int;
  mutable a_shed : int;
  mutable a_draining : int;
  mutable a_errors : int;
  mutable a_transport : int;
  mutable a_lats : int64 list;
}

let classify acc frames lat =
  match List.rev frames with
  | [] -> acc.a_transport <- acc.a_transport + 1
  | last :: _ -> (
      match Jsonx.member "ok" last with
      | Some (Jsonx.Bool true) ->
          acc.a_ok <- acc.a_ok + 1;
          acc.a_lats <- lat :: acc.a_lats;
          let degraded j =
            match Jsonx.member "degraded" j with
            | Some (Jsonx.List (_ :: _)) -> true
            | _ -> false
          in
          if List.exists degraded frames then
            acc.a_degraded <- acc.a_degraded + 1
      | _ -> (
          match Option.bind (Jsonx.member "reason" last) Jsonx.to_str with
          | Some "overloaded" -> acc.a_shed <- acc.a_shed + 1
          | Some "draining" -> acc.a_draining <- acc.a_draining + 1
          | _ -> acc.a_errors <- acc.a_errors + 1))

let run_session ~addr ~workload ~fuel ~timeout_ms ~requests acc session =
  match Client.connect ~timeout_ms:10_000 addr with
  | Error _ -> acc.a_transport <- acc.a_transport + 1
  | Ok c ->
      let rec go req =
        if req < requests then begin
          let j = build_request ~workload ~fuel ~timeout_ms ~session ~req in
          acc.a_requests <- acc.a_requests + 1;
          let t0 = Trace.now_ns () in
          match Client.send c j with
          | Error _ -> acc.a_transport <- acc.a_transport + 1
          | Ok () -> (
              match Client.read_stream c with
              | Error _ -> acc.a_transport <- acc.a_transport + 1
              | Ok frames ->
                  let lat = Int64.sub (Trace.now_ns ()) t0 in
                  classify acc frames lat;
                  (* A shed/draining reply closes the connection
                     server-side; stop the session. *)
                  let terminal =
                    match List.rev frames with
                    | last :: _ -> (
                        match Jsonx.member "ok" last with
                        | Some (Jsonx.Bool true) -> false
                        | _ -> true)
                    | [] -> true
                  in
                  if not terminal then go (req + 1))
        end
      in
      go 0;
      Client.close c

let load_gen ~addr ~clients ~sessions ~requests_per_session ~workload ?fuel
    ?timeout_ms () =
  let clients = max 1 clients in
  let accs =
    Array.init clients (fun _ ->
        {
          a_requests = 0;
          a_ok = 0;
          a_degraded = 0;
          a_shed = 0;
          a_draining = 0;
          a_errors = 0;
          a_transport = 0;
          a_lats = [];
        })
  in
  let t0 = Trace.now_ns () in
  let threads =
    List.init clients (fun tid ->
        Thread.create
          (fun () ->
            let acc = accs.(tid) in
            let rec go s =
              if s < sessions then begin
                if s mod clients = tid then
                  run_session ~addr ~workload ~fuel ~timeout_ms
                    ~requests:requests_per_session acc s;
                go (s + 1)
              end
            in
            go 0)
          ())
  in
  List.iter Thread.join threads;
  let elapsed = Int64.sub (Trace.now_ns ()) t0 in
  let merged f = Array.fold_left (fun n a -> n + f a) 0 accs in
  let lats =
    Array.of_list (Array.fold_left (fun l a -> a.a_lats @ l) [] accs)
  in
  Array.sort Int64.compare lats;
  {
    lg_sessions = sessions;
    lg_requests = merged (fun a -> a.a_requests);
    lg_ok = merged (fun a -> a.a_ok);
    lg_degraded = merged (fun a -> a.a_degraded);
    lg_shed = merged (fun a -> a.a_shed);
    lg_draining = merged (fun a -> a.a_draining);
    lg_errors = merged (fun a -> a.a_errors);
    lg_transport = merged (fun a -> a.a_transport);
    lg_elapsed_ns = elapsed;
    lg_latencies_ns = lats;
  }
