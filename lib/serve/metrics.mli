(** Daemon-side counters (connections, frames, socket faults, shed
    load); engine-side numbers stay in {!Dlz_engine.Stats}.  All
    fields are [Atomic.t] — any domain records without coordination. *)

type t = {
  accepted : int Atomic.t;
  shed : int Atomic.t;
  rejected_draining : int Atomic.t;
  active : int Atomic.t;
  requests : int Atomic.t;
  responses : int Atomic.t;
  errors : int Atomic.t;
  malformed : int Atomic.t;
  disconnects : int Atomic.t;
  timeouts : int Atomic.t;
  contained : int Atomic.t;
}

type snapshot = {
  s_accepted : int;
  s_shed : int;
  s_rejected_draining : int;
  s_active : int;
  s_requests : int;
  s_responses : int;
  s_errors : int;
  s_malformed : int;
  s_disconnects : int;
  s_timeouts : int;
  s_contained : int;
}

val create : unit -> t

val reset : t -> unit
(** Zeroes the cumulative counters.  [active] is a live gauge (it
    tracks connections currently being served) and is left alone. *)

val register_obs : t -> unit
(** Installs the ["serve"] collector in {!Dlz_obs.Registry} —
    [vic_serve_*] counter/gauge samples — with {!reset} as the reset
    hook, so [Engine.reset_metrics] covers the daemon's counters too.
    Replace semantics: the latest server to start owns the name. *)

val snapshot : t -> snapshot
val snapshot_to_json : snapshot -> Jsonx.t
val to_json : t -> Jsonx.t
