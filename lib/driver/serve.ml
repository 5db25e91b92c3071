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
        let m = Server.metrics srv in
        let n = Atomic.get in
        Printf.eprintf
          "vic serve: %d connections (%d shed, %d refused draining), %d \
           requests, %d responses, %d errors\n\
           %!"
          (n m.Metrics.accepted) (n m.Metrics.shed)
          (n m.Metrics.rejected_draining) (n m.Metrics.requests)
          (n m.Metrics.responses) (n m.Metrics.errors)
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

type report = {
  lg_requests : int;  (* requests sent *)
  lg_ok : int;  (* requests answered ok:true *)
  lg_shed : int;  (* overloaded replies *)
  lg_draining : int;  (* draining replies *)
  lg_errors : int;  (* other ok:false replies *)
  lg_transport : int;  (* connects or reads that died *)
}

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

(* Query-heavy, like a compiler driving the daemon: 6/8 queries, 1/8
   pings, 1/8 whole-program analyzes. *)
let build_request ~session ~req =
  let n = (session * 1_000_000) + req in
  let pick pool =
    let pool = Lazy.force pool in
    pool.(n mod Array.length pool)
  in
  let op, rest =
    match n mod 8 with
    | 0 -> ("ping", [])
    | 7 ->
        ( "analyze",
          [ ("lang", Jsonx.Str "f"); ("source", Jsonx.Str (pick analyze_pool)) ]
        )
    | _ -> ("query", [ ("problem", pick query_pool) ])
  in
  Jsonx.Obj (("op", Jsonx.Str op) :: ("id", Jsonx.Int n) :: rest)

type acc = {
  mutable a_requests : int;
  mutable a_ok : int;
  mutable a_shed : int;
  mutable a_draining : int;
  mutable a_errors : int;
  mutable a_transport : int;
}

let classify acc frames =
  match List.rev frames with
  | [] -> acc.a_transport <- acc.a_transport + 1
  | last :: _ -> (
      match Jsonx.member "ok" last with
      | Some (Jsonx.Bool true) -> acc.a_ok <- acc.a_ok + 1
      | _ -> (
          match Option.bind (Jsonx.member "reason" last) Jsonx.to_str with
          | Some "overloaded" -> acc.a_shed <- acc.a_shed + 1
          | Some "draining" -> acc.a_draining <- acc.a_draining + 1
          | _ -> acc.a_errors <- acc.a_errors + 1))

let run_session ~addr ~requests acc session =
  match Client.connect ~timeout_ms:10_000 addr with
  | Error _ -> acc.a_transport <- acc.a_transport + 1
  | Ok c ->
      let rec go req =
        if req < requests then begin
          let j = build_request ~session ~req in
          acc.a_requests <- acc.a_requests + 1;
          match Client.send c j with
          | Error _ -> acc.a_transport <- acc.a_transport + 1
          | Ok () -> (
              match Client.read_stream c with
              | Error _ -> acc.a_transport <- acc.a_transport + 1
              | Ok frames ->
                  classify acc frames;
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

let load_gen ~addr ~clients ~sessions ~requests_per_session =
  let clients = max 1 clients in
  let accs =
    Array.init clients (fun _ ->
        {
          a_requests = 0;
          a_ok = 0;
          a_shed = 0;
          a_draining = 0;
          a_errors = 0;
          a_transport = 0;
        })
  in
  let threads =
    List.init clients (fun tid ->
        Thread.create
          (fun () ->
            let acc = accs.(tid) in
            let rec go s =
              if s < sessions then begin
                if s mod clients = tid then
                  run_session ~addr ~requests:requests_per_session acc s;
                go (s + 1)
              end
            in
            go 0)
          ())
  in
  List.iter Thread.join threads;
  let merged f = Array.fold_left (fun n a -> n + f a) 0 accs in
  {
    lg_requests = merged (fun a -> a.a_requests);
    lg_ok = merged (fun a -> a.a_ok);
    lg_shed = merged (fun a -> a.a_shed);
    lg_draining = merged (fun a -> a.a_draining);
    lg_errors = merged (fun a -> a.a_errors);
    lg_transport = merged (fun a -> a.a_transport);
  }
