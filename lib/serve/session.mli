(** Per-connection request loop, run on a worker domain.

    The containment contract mirrors the strategy cascade's: any fault
    while serving one request — a raising solver, a malformed frame, a
    mid-stream disconnect, an injected chaos fault — costs at most
    that one connection one error response; the worker domain, the
    other connections, and the process are untouched.  Framing
    violations close the connection (the byte stream cannot resync);
    well-framed garbage (bad JSON, bad request shape) costs one
    ["bad-request"] reply and the connection continues. *)

type ctx = {
  metrics : Metrics.t;
  attrib : Attrib.t;
      (** Per-client attribution; every dispatched request records its
          latency here, and engine queries report their cache
          disposition through it. *)
  budget : Dlz_base.Budget.t;
      (** The server-lifetime budget; each request carves a child from
          it with [Budget.sub], so request deadlines can never outlive
          a server shutdown deadline. *)
  request_fuel : int option;
      (** Per-request ceilings.  A request's own [fuel]/[timeout_ms]
          fields are honored only downward (min with the ceiling). *)
  request_timeout_ms : int option;
  max_frame : int;
  cascade : Dlz_engine.Cascade.t option;
  draining : unit -> bool;
      (** Checked between requests: when true the loop finishes the
          in-flight request and closes. *)
  request_shutdown : unit -> unit;  (** Wired to the server's [stop]. *)
}

val handle : ctx -> Unix.file_descr -> unit
(** Serve one connection to completion.  Never raises; does not close
    [fd] (the caller owns it). *)
