module Budget = Dlz_base.Budget
module Cascade = Dlz_engine.Cascade
module Persist = Dlz_engine.Persist

type config = {
  address : Addr.t;
  workers : int;  (* worker domains; clamped to at least 1 *)
  queue_capacity : int;  (* bounded accept queue; beyond it we shed *)
  max_frame : int;
  idle_timeout_ms : int;  (* per-read receive timeout (slow-loris bound) *)
  retry_after_ms : int;  (* hint attached to overload replies *)
  request_fuel : int option;
  request_timeout_ms : int option;
  global_fuel : int option;
  global_timeout_ms : int option;
  cascade : Cascade.t option;
  snapshot_load : string option;
  snapshot_save : string option;
  metrics_dump : string option;  (* NDJSON time series of obs snapshots *)
  metrics_dump_interval_ms : int;
}

let default_config address =
  {
    address;
    workers = 2;
    queue_capacity = 64;
    max_frame = Frame.default_max_bytes;
    idle_timeout_ms = 10_000;
    retry_after_ms = 50;
    request_fuel = None;
    request_timeout_ms = Some 2_000;
    global_fuel = None;
    global_timeout_ms = None;
    cascade = None;
    snapshot_load = None;
    snapshot_save = None;
    metrics_dump = None;
    metrics_dump_interval_ms = 1_000;
  }

type summary = {
  sm_loaded : (int, string) result option;  (* warm-start outcome *)
  sm_saved : (int, string) result option;  (* drain snapshot outcome *)
}

(* Everything the accept loop and the workers share; plain immutable
   record handed to each domain at spawn (no lazy self-knots — forcing
   a lazy from several domains is not safe). *)
type shared = {
  cfg : config;
  lsock : Unix.file_descr;
  queue : Unix.file_descr Admission.t;
  metrics : Metrics.t;
  draining : bool Atomic.t;
}

type t = {
  sh : shared;
  resolved : Addr.t;
  loaded : (int, string) result option;
  accept_dom : unit Domain.t;
  worker_doms : unit Domain.t list;
  dump_dom : unit Domain.t option;
  mutable joined : summary option;
}

let metrics t = t.sh.metrics
let address t = t.resolved
let stopped t = Atomic.get t.sh.draining
let stop t = Atomic.set t.sh.draining true

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Best-effort refusal reply on a connection we are not going to
   serve: if the write fails the client learns it from the close. *)
let refuse metrics fd payload =
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0
   with Unix.Unix_error _ -> ());
  (match Frame.write (Frame.writer fd) payload with
  | Ok () -> Atomic.incr metrics.Metrics.errors
  | Error _ -> ());
  close_quiet fd

(* The heap bound.  Under load the workers promote garbage faster than
   the major collector's pacing retires it, and the heap grows with the
   run.  The accept loop wakes at least every 100 ms; each wake it runs
   a full major collection once the heap has grown this many words past
   its size after the last forced one.  An idle daemon does not grow,
   so it never collects.  1 MiB of slack held serve-mix's peak RSS
   within 5% of a Nagle-bound daemon's; DESIGN §14 has the alternatives
   measured. *)
let heap_slack_words = 128 * 1024

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let bound_heap floor =
  if heap_words () <= floor + heap_slack_words then floor
  else begin
    Gc.full_major ();
    heap_words ()
  end

let accept_loop sh =
  let overloaded =
    Proto.error ~id:Jsonx.Null ~reason:"overloaded"
      ~retry_after_ms:sh.cfg.retry_after_ms "queue full, try again later"
  in
  let draining_reply =
    Proto.error ~id:Jsonx.Null ~reason:"draining" "server is shutting down"
  in
  let rec loop heap_floor =
    if Atomic.get sh.draining then ()
    else begin
      (match Unix.select [ sh.lsock ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept sh.lsock with
          | fd, _ -> (
              Unix.clear_nonblock fd;
              (* A reply that flushes more than once must not wait on
                 Nagle for the peer's delayed acknowledgement. *)
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              (try
                 let to_s = float_of_int sh.cfg.idle_timeout_ms /. 1000. in
                 Unix.setsockopt_float fd Unix.SO_RCVTIMEO to_s;
                 Unix.setsockopt_float fd Unix.SO_SNDTIMEO (Float.max to_s 1.0)
               with Unix.Unix_error _ -> ());
              match Admission.try_admit sh.queue fd with
              | Admission.Admitted -> Atomic.incr sh.metrics.Metrics.accepted
              | Admission.Shed ->
                  (* The headline robustness move: a full queue is an
                     explicit, immediate answer — never silent latency. *)
                  Atomic.incr sh.metrics.Metrics.shed;
                  refuse sh.metrics fd overloaded
              | Admission.Closed ->
                  Atomic.incr sh.metrics.Metrics.rejected_draining;
                  refuse sh.metrics fd draining_reply)
          | exception
              Unix.Unix_error
                ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED),
                  _,
                  _ ) ->
              ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop (bound_heap heap_floor)
    end
  in
  loop (heap_words ());
  (* Drain sequence: stop accepting, then let the workers run the
     queue dry ([Admission.take] hands out queued items after close). *)
  close_quiet sh.lsock;
  Admission.close sh.queue

let worker_loop sh ctx =
  let draining_reply =
    Proto.error ~id:Jsonx.Null ~reason:"draining" "server is shutting down"
  in
  let rec loop () =
    match Admission.take sh.queue with
    | None -> ()
    | Some fd ->
        (* A connection admitted before the drain started is served;
           one that is still queued when we notice the drain gets an
           explicit refusal rather than a silent close. *)
        if Atomic.get sh.draining then begin
          Atomic.incr sh.metrics.Metrics.rejected_draining;
          refuse sh.metrics fd draining_reply
        end
        else begin
          Session.handle ctx fd;
          close_quiet fd
        end;
        loop ()
  in
  loop ()

(* The metrics dumper: one NDJSON line per interval, each the full obs
   snapshot (versioned Snap shape) — a flight recorder for the daemon's
   whole metric plane.  Append mode: restarts extend the series.  The
   drain flag is polled in 50 ms steps so shutdown never waits out a
   long interval, and one final line lands after the drain so the
   series always ends with the daemon's last state. *)
let dump_loop sh path =
  let interval = max 50 sh.cfg.metrics_dump_interval_ms in
  match
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  with
  | exception Sys_error _ -> ()
  | oc ->
      let emit () =
        match
          Jsonx.to_string (Dlz_obs.Snap.to_json (Dlz_obs.Registry.collect ()))
        with
        | line ->
            output_string oc line;
            output_char oc '\n';
            flush oc
        | exception _ -> ()
      in
      let rec wait remaining_ms =
        if Atomic.get sh.draining || remaining_ms <= 0 then ()
        else begin
          Unix.sleepf (float_of_int (min 50 remaining_ms) /. 1000.);
          wait (remaining_ms - 50)
        end
      in
      let rec loop () =
        if Atomic.get sh.draining then ()
        else begin
          emit ();
          wait interval;
          loop ()
        end
      in
      loop ();
      emit ();
      close_out_noerr oc

let start cfg =
  (* A client that disappears mid-write otherwise kills the process
     with SIGPIPE; writes then fail with EPIPE, which [Frame] contains. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let loaded =
    match cfg.snapshot_load with
    | None -> None
    | Some path -> Some (Persist.load path)
  in
  match Addr.listen cfg.address with
  | Error m -> Error m
  | Ok (lsock, resolved) ->
      Unix.set_nonblock lsock;
      let sh =
        {
          cfg;
          lsock;
          queue = Admission.create ~capacity:cfg.queue_capacity;
          metrics = Metrics.create ();
          draining = Atomic.make false;
        }
      in
      let budget =
        Budget.create ?fuel:cfg.global_fuel ?timeout_ms:cfg.global_timeout_ms ()
      in
      (* The live daemon owns the "serve" and "clients" collectors
         (replace semantics — the latest server wins, which is what
         sequential test servers need). *)
      let attrib = Attrib.create () in
      Metrics.register_obs sh.metrics;
      Attrib.register_obs attrib;
      let ctx =
        {
          Session.metrics = sh.metrics;
          attrib;
          budget;
          request_fuel = cfg.request_fuel;
          request_timeout_ms = cfg.request_timeout_ms;
          max_frame = cfg.max_frame;
          cascade = cfg.cascade;
          draining = (fun () -> Atomic.get sh.draining);
          request_shutdown = (fun () -> Atomic.set sh.draining true);
        }
      in
      let accept_dom = Domain.spawn (fun () -> accept_loop sh) in
      let worker_doms =
        List.init (max 1 cfg.workers) (fun _ ->
            Domain.spawn (fun () -> worker_loop sh ctx))
      in
      let dump_dom =
        Option.map
          (fun path -> Domain.spawn (fun () -> dump_loop sh path))
          cfg.metrics_dump
      in
      Ok
        {
          sh;
          resolved;
          loaded;
          accept_dom;
          worker_doms;
          dump_dom;
          joined = None;
        }

let join t =
  match t.joined with
  | Some s -> s
  | None ->
      Domain.join t.accept_dom;
      List.iter Domain.join t.worker_doms;
      Option.iter Domain.join t.dump_dom;
      (match t.resolved with
      | Addr.Unix_sock p -> ( try Sys.remove p with Sys_error _ -> ())
      | Addr.Tcp _ -> ());
      let saved =
        match t.sh.cfg.snapshot_save with
        | None -> None
        | Some path -> Some (Persist.save path)
      in
      let s =
        {
          sm_loaded = t.loaded;
          sm_saved = saved;
        }
      in
      t.joined <- Some s;
      s
