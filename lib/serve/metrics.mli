(** Daemon-side counters (connections, frames, socket faults, shed
    load); engine-side numbers stay in {!Dlz_engine.Stats}.  Every
    field is an [Atomic.t] cell of a [vic_serve_*] {!Dlz_obs.Family}
    — any domain records without coordination, and readers (the drain
    line, the bench) read the cells directly. *)

type t = {
  accepted : int Atomic.t;
  shed : int Atomic.t;
  rejected_draining : int Atomic.t;
  active : int Atomic.t;
      (** A live gauge (connections being served right now): a reset
          leaves it alone. *)
  requests : int Atomic.t;
  responses : int Atomic.t;
  errors : int Atomic.t;
  malformed : int Atomic.t;
  disconnects : int Atomic.t;
  timeouts : int Atomic.t;
  contained : int Atomic.t;
  families : Dlz_obs.Family.group;
}

val create : unit -> t

val register_obs : t -> unit
(** Installs [families] as the ["serve"] collector in
    {!Dlz_obs.Registry} — [vic_serve_*] counter/gauge samples — whose
    reset hook zeroes the cumulative counters, so
    [Engine.reset_metrics] covers the daemon's counters too.  Replace
    semantics: the latest server to start owns the name. *)
