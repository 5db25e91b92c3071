(** CLI glue and load generation for the [vic serve] daemon.

    {!run_cli} wires SIGTERM/SIGINT to the server's graceful drain and
    blocks until shutdown.  {!load_gen} is the simulated-client fleet
    behind the serve bench arm and the overload tests: a thread per
    simulated client (threads, not domains — a client's life is
    blocked socket I/O, and thousands of threads fit where domains
    cannot), each running framed sessions against the daemon and
    classifying every reply. *)

val run_cli : ?stats_json:bool -> ?quiet:bool -> Dlz_serve.Server.config -> unit
(** Start, announce, drain on SIGTERM/SIGINT (or a [shutdown] request),
    join, report.  [stats_json] prints one {!Dlz_obs.Snap} line
    of {!Dlz_obs.Registry.collect} on exit — daemon, engine and
    per-client counters plus latency histograms, the same line as
    [vic stats --format json] and [--metrics-dump].  Exits the process
    with code 1 when the server cannot start. *)

val run_stats :
  addr:Dlz_serve.Addr.t ->
  format:[ `Prom | `Json ] ->
  watch:bool ->
  interval_ms:int ->
  count:int ->
  unit ->
  unit
(** The client side of the [metrics] verb: one scrape per round trip,
    printed as received (Prometheus text or the one-line Snap JSON).
    [watch] polls every [interval_ms] (clamped to ≥ 100 ms) until
    interrupted, or for [count] scrapes when [count > 0].  A failed
    one-shot scrape exits with code 1; under [--watch] it is reported
    and retried on the next tick. *)

type workload = Ping | Query | Analyze | Mix
(** [Mix] is query-heavy, like a compiler driving the daemon: 6/8
    queries, 1/8 pings, 1/8 whole-program analyzes. *)

type report = {
  lg_sessions : int;
  lg_requests : int;
  lg_ok : int;
  lg_degraded : int;  (** ok replies that carried degradations *)
  lg_shed : int;  (** explicit ["overloaded"] refusals *)
  lg_draining : int;
  lg_errors : int;  (** other [ok:false] replies *)
  lg_transport : int;  (** connects or reads that died *)
  lg_elapsed_ns : int64;
  lg_latency : Dlz_base.Trace.Hist.t;
      (** Client-observed latency, one observation per answered
          request: each client thread records into its own histogram,
          merged after the join. *)
}

val throughput : report -> float
(** Answered requests per second over the fleet's wall-clock. *)

val load_gen :
  addr:Dlz_serve.Addr.t ->
  clients:int ->
  sessions:int ->
  requests_per_session:int ->
  workload:workload ->
  ?fuel:int ->
  ?timeout_ms:int ->
  unit ->
  report
(** Run [sessions] sessions of [requests_per_session] requests each,
    dealt round-robin over [clients] concurrent threads.  [fuel] and
    [timeout_ms] are attached to every request (the per-request budget
    ask).  A shed/draining reply ends its session (the server closes
    the connection after refusing). *)
