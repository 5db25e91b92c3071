(** Per-client attribution.

    Clients self-identify with an optional ["client"] request field
    (default ["anon"]); the daemon records per-(client, verb) request
    counts and latency histograms, and per-client engine-cache
    dispositions (warm/cold hit, miss, uncacheable), error reasons and
    degradation counts.  Cardinality is capped: past [max_clients]
    distinct names, newcomers fold into the ["other"] bucket, so a
    label-churning client cannot grow the metric space without bound.
    Names are trimmed and truncated to at most 64 bytes, at a UTF-8
    codepoint boundary.

    All recording entry points are domain-safe: the cells are
    [Atomic.t]s and {!Dlz_base.Trace.Hist}s in [vic_client_*]
    {!Dlz_obs.Family}s, and the capped set of admitted names is
    swapped by compare-and-set. *)

type t

val default_client : string
(** ["anon"]. *)

val create : ?max_clients:int -> unit -> t
(** [max_clients] defaults to 64 (clamped to at least 1). *)

val observe_request : t -> client:string -> verb:string -> int64 -> unit
(** Record one dispatched request and its wall-clock (nanoseconds,
    socket to socket). *)

val record_disposition : t -> client:string -> Dlz_engine.Query.disposition -> unit
(** The engine-cache disposition of one query this client caused —
    wire this as the [?observer] of {!Dlz_engine.Engine.query}. *)

val record_error : t -> client:string -> reason:string -> unit
val record_degraded : t -> client:string -> unit

val register_obs : t -> unit
(** Installs the ["clients"] collector in {!Dlz_obs.Registry}
    ([vic_client_*] families; zero-valued series are suppressed),
    whose reset hook forgets every client. *)
