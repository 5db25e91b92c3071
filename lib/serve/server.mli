(** The overload-safe dependence-query daemon.

    Topology: one accept-loop domain multiplexing the listening socket
    (100 ms poll of the drain flag), a {!Admission} bounded queue, and
    [workers] session domains each owning one connection at a time.
    Admission control is immediate and explicit — a full queue answers
    [{"ok":false,"reason":"overloaded","retry_after_ms":..}] and
    closes; nothing queues unboundedly.  Each request carves its
    budget from one server-lifetime budget via [Budget.sub], so no
    request deadline can outlive the server's own.

    Shutdown is a drain, not a kill: {!stop} (wired to SIGTERM/SIGINT
    by the CLI, and to the [shutdown] op by the session) flips one
    atomic; the accept loop closes the socket, queued admitted
    connections are refused with ["draining"], in-flight requests
    finish, and {!join} snapshots the warm cache on the way down. *)

type config = {
  address : Addr.t;
  workers : int;
  queue_capacity : int;
  max_frame : int;
  idle_timeout_ms : int;
      (** Per-read receive timeout: the slow-loris bound, and the
          worst-case drain latency for a connection idling in a read. *)
  retry_after_ms : int;
  request_fuel : int option;
  request_timeout_ms : int option;
  global_fuel : int option;
  global_timeout_ms : int option;
  cascade : Dlz_engine.Cascade.t option;
  snapshot_load : string option;
  snapshot_save : string option;
  metrics_dump : string option;
      (** Append one NDJSON line per interval to this path — the full
          obs snapshot in the versioned {!Dlz_obs.Snap} shape — plus a
          final line after the drain.  A flight recorder for the
          metric plane; restarts extend the series. *)
  metrics_dump_interval_ms : int;  (** Clamped to at least 50 ms. *)
}

val default_config : Addr.t -> config
(** 2 workers, queue 64, 4 MiB frames, 10 s idle timeout, 2 s
    per-request deadline, 50 ms retry hint, no snapshots, no metrics
    dump (1 s interval when one is enabled). *)

type summary = {
  sm_loaded : (int, string) result option;
      (** Warm-start outcome when [snapshot_load] was set. *)
  sm_saved : (int, string) result option;
      (** Drain-snapshot outcome when [snapshot_save] was set. *)
}

type t

val start : config -> (t, string) result
(** Binds, warm-starts (optionally), spawns the domains, returns
    immediately.  Ignores [SIGPIPE] process-wide (a vanished client
    must be an [EPIPE], not a kill). *)

val address : t -> Addr.t
(** Resolved: a TCP port-0 request carries the actual port. *)

val metrics : t -> Metrics.t
val stop : t -> unit
(** Trigger the drain; idempotent, safe from any domain or signal
    handler. *)

val stopped : t -> bool

val join : t -> summary
(** Waits for the drain to complete (worst case: one idle timeout plus
    the longest in-flight request), saves the drain snapshot, removes
    a unix socket file, and reports.  Idempotent. *)
