(** The request/response vocabulary of the wire protocol.

    Requests are single JSON objects (one per frame) with an [op]
    field and an optional client-chosen [id], echoed verbatim on every
    response frame belonging to that request.  Decoding is total and
    bounded: shape violations come back as [Error] strings (which the
    session turns into one ["bad-request"] reply), and structural
    bounds (≤ 64 equations / terms / levels, ≤ 1 MiB of source) reject
    resource-attack payloads before any solving starts. *)

type request =
  | Ping
  | Metrics of { format : [ `Prom | `Json ] }
      (** Scrape the {!Dlz_obs.Registry}: Prometheus exposition text
          (default) or the versioned {!Dlz_obs.Snap} JSON shape.  The
          one counter readout of the protocol: daemon, engine and
          per-client counters all travel here. *)
  | Shutdown
  | Query of {
      problem : Dlz_deptest.Problem.t;
      fuel : int option;
      timeout_ms : int option;
    }
  | Analyze of {
      lang : Dlz_passes.Pipeline.lang;
      source : string;
      assume : (string * int) list;
      fuel : int option;
      timeout_ms : int option;
    }

val op_name : request -> string

val parse_request : Jsonx.t -> Jsonx.t * (request, string) result
(** Returns the echoed [id] (Null when absent) alongside the decoded
    request. *)

val client_of : Jsonx.t -> string
(** The self-declared ["client"] name riding on a request, for
    per-client attribution; ["anon"] when absent, non-string, or
    blank. *)

val numeric_of_json : Jsonx.t -> (Dlz_deptest.Problem.numeric, string) result
(** Decodes the one encoding of a numeric dependence problem:
    [{"n_common":N, "common_ubs":[..], "opaque_dims":N, "eqs":[{"c0":N,
    "terms":[{"coeff":N,"side":"src"|"dst","level":N,"ub":N,"name":S?}]}]}],
    within the wire bounds (no negative upper bound, levels ≤ 64, ≤ 64
    terms per equation and ≤ 64 equations, one [common_ubs] entry per
    common level).  The [query] verb and [vic fuzz --replay] read it. *)

val problem_to_json : Dlz_deptest.Problem.numeric -> Jsonx.t
(** Inverse of {!numeric_of_json}, for clients, the load generator and
    fuzz counterexamples. *)

val ok : ?rid:int -> id:Jsonx.t -> op:string -> (string * Jsonx.t) list -> string
(** One rendered [{"id":..,"ok":true,"op":..,...}] response payload.
    [rid], when given, is echoed as a ["rid"] field — the server-side
    monotonic request id that correlates the response with the
    daemon's trace spans. *)

val error :
  ?rid:int ->
  id:Jsonx.t ->
  reason:string ->
  ?retry_after_ms:int ->
  string ->
  string
(** One rendered [{"id":..,"ok":false,"reason":..,"error":..}] payload.
    [reason] is machine-readable: ["overloaded"], ["draining"],
    ["bad-request"], ["protocol"], ["timeout"], or ["internal"];
    [rid] as in {!ok} (refusal paths have none). *)

val result_fields : Dlz_engine.Strategy.result -> (string * Jsonx.t) list
(** verdict / decided_by / dirvecs / distances / degraded fields of a
    query result, ready to splice into {!ok}. *)
