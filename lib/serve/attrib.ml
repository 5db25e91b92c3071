(* Per-client attribution: who is asking, what are they asking, and
   how is the cache treating them.  Clients self-identify with an
   optional "client" request field (default "anon"); the daemon never
   trusts the name for anything but labeling.  Cardinality is capped —
   past [max_clients] distinct names, newcomers are folded into the
   ["other"] bucket so a label-churning client cannot grow the metric
   space without bound. *)

module Trace = Dlz_base.Trace
module Query = Dlz_engine.Query
module F = Dlz_obs.Family
module Sset = Set.Make (String)

let default_client = "anon"
let overflow_client = "other"
let max_name_bytes = 64

(* Every family is keyed by client first, hides zero cells (a client
   that never erred has no error rows) and forgets its cells on a
   reset, like the admitted set. *)
type t = {
  admitted : Sset.t Atomic.t;  (* names holding their own label *)
  max_clients : int;
  families : F.group;
  requests : int Atomic.t F.t;  (* client, verb *)
  latency : Trace.Hist.t F.t;  (* client, verb: socket to socket *)
  hits : int Atomic.t F.t;  (* client, temp *)
  misses : int Atomic.t F.t;
  uncacheable : int Atomic.t F.t;
  errors : int Atomic.t F.t;  (* client, reason *)
  degraded : int Atomic.t F.t;  (* ok replies that carried degradations *)
}

let create ?(max_clients = 64) () =
  let group = F.group () in
  let counter ?(labels = []) help name =
    F.counter ~group ~labels:("client" :: labels) ~hide_zero:true ~forget:true
      ~help name
  in
  {
    admitted = Atomic.make Sset.empty;
    max_clients = max 1 max_clients;
    families = group;
    requests =
      counter ~labels:[ "verb" ] "requests dispatched per client and verb"
        "vic_client_requests_total";
    latency =
      Trace.Hist.family ~group ~labels:[ "client"; "verb" ] ~forget:true
        ~help:"per-client request latency (nanoseconds)"
        "vic_client_request_ns";
    hits =
      counter ~labels:[ "temp" ] "engine cache hits per client"
        "vic_client_cache_hits_total";
    misses =
      counter "engine cache misses per client" "vic_client_cache_misses_total";
    uncacheable =
      counter "uncacheable (symbolic) queries per client"
        "vic_client_uncacheable_total";
    errors =
      counter ~labels:[ "reason" ] "error replies per client and reason"
        "vic_client_errors_total";
    degraded =
      counter "ok replies that carried degradations per client"
        "vic_client_degraded_total";
  }

(* Label-value hygiene: bound the bytes (a client name is a label
   value, not a payload) without splitting a UTF-8 sequence — a
   continuation byte (10xxxxxx) never starts a codepoint — and default
   the empty name. *)
let normalize name =
  let name = String.trim name in
  let name =
    if String.length name <= max_name_bytes then name
    else
      let rec cut i =
        if i > 0 && Char.code name.[i] land 0xC0 = 0x80 then cut (i - 1) else i
      in
      String.sub name 0 (cut max_name_bytes)
  in
  if name = "" then default_client else name

(* The label a client records under: its own name while fewer than
   [max_clients] names hold one, else the overflow bucket. *)
let rec label t name =
  let name = normalize name in
  let s = Atomic.get t.admitted in
  if Sset.mem name s then name
  else if Sset.cardinal s >= t.max_clients then overflow_client
  else if Atomic.compare_and_set t.admitted s (Sset.add name s) then name
  else label t name

let bump f labels = Atomic.incr (F.cell f labels)

let observe_request t ~client ~verb ns =
  let client = label t client in
  bump t.requests [ client; verb ];
  Trace.Hist.observe (F.cell t.latency [ client; verb ]) ns

let record_disposition t ~client (d : Query.disposition) =
  let client = label t client in
  match d with
  | Query.Hit_warm -> bump t.hits [ client; "warm" ]
  | Query.Hit_cold -> bump t.hits [ client; "cold" ]
  | Query.Miss -> bump t.misses [ client ]
  | Query.Uncacheable -> bump t.uncacheable [ client ]

let record_error t ~client ~reason = bump t.errors [ label t client; reason ]
let record_degraded t ~client = bump t.degraded [ label t client ]

let register_obs t =
  Dlz_obs.Registry.register ~name:"clients"
    ~reset:(fun () ->
      F.reset_group t.families;
      Atomic.set t.admitted Sset.empty)
    (fun () -> F.collect t.families)
