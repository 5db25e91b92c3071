(* Serve-layer counters, all Atomic so every domain records freely.
   The engine-side numbers (cache hits, degradations, ...) live in
   [Dlz_engine.Stats]; these cover what only the daemon can see:
   connections, frames, faults at the socket boundary, shed load. *)

type t = {
  accepted : int Atomic.t;  (* connections admitted to the queue *)
  shed : int Atomic.t;  (* connections refused: queue full *)
  rejected_draining : int Atomic.t;  (* connections refused: draining *)
  active : int Atomic.t;  (* connections being served right now *)
  requests : int Atomic.t;  (* well-framed requests received *)
  responses : int Atomic.t;  (* ok:true frames sent *)
  errors : int Atomic.t;  (* ok:false frames sent (any reason) *)
  malformed : int Atomic.t;  (* frames that violated framing or JSON *)
  disconnects : int Atomic.t;  (* connections lost mid-stream *)
  timeouts : int Atomic.t;  (* reads that hit the idle timeout *)
  contained : int Atomic.t;  (* dispatch faults turned into one error *)
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

let create () =
  {
    accepted = Atomic.make 0;
    shed = Atomic.make 0;
    rejected_draining = Atomic.make 0;
    active = Atomic.make 0;
    requests = Atomic.make 0;
    responses = Atomic.make 0;
    errors = Atomic.make 0;
    malformed = Atomic.make 0;
    disconnects = Atomic.make 0;
    timeouts = Atomic.make 0;
    contained = Atomic.make 0;
  }

let snapshot t =
  {
    s_accepted = Atomic.get t.accepted;
    s_shed = Atomic.get t.shed;
    s_rejected_draining = Atomic.get t.rejected_draining;
    s_active = Atomic.get t.active;
    s_requests = Atomic.get t.requests;
    s_responses = Atomic.get t.responses;
    s_errors = Atomic.get t.errors;
    s_malformed = Atomic.get t.malformed;
    s_disconnects = Atomic.get t.disconnects;
    s_timeouts = Atomic.get t.timeouts;
    s_contained = Atomic.get t.contained;
  }

(* Cumulative counters go back to zero; [active] is a live gauge
   tracking connections currently being served, so a reset must not
   touch it (zeroing it would make the next disconnect go negative). *)
let reset t =
  Atomic.set t.accepted 0;
  Atomic.set t.shed 0;
  Atomic.set t.rejected_draining 0;
  Atomic.set t.requests 0;
  Atomic.set t.responses 0;
  Atomic.set t.errors 0;
  Atomic.set t.malformed 0;
  Atomic.set t.disconnects 0;
  Atomic.set t.timeouts 0;
  Atomic.set t.contained 0

let obs_samples t =
  let open Dlz_obs.Registry in
  let counter ?labels help name v = sample ~help ?labels name (Counter v) in
  [
    counter ~labels:[ ("outcome", "accepted") ]
      "connections by admission outcome" "vic_serve_connections_total"
      (Atomic.get t.accepted);
    counter ~labels:[ ("outcome", "shed") ]
      "connections by admission outcome" "vic_serve_connections_total"
      (Atomic.get t.shed);
    counter ~labels:[ ("outcome", "rejected_draining") ]
      "connections by admission outcome" "vic_serve_connections_total"
      (Atomic.get t.rejected_draining);
    sample ~help:"connections being served right now" "vic_serve_active"
      (Gauge (float_of_int (Atomic.get t.active)));
    counter "well-framed requests received" "vic_serve_requests_total"
      (Atomic.get t.requests);
    counter "ok:true frames sent" "vic_serve_responses_total"
      (Atomic.get t.responses);
    counter "ok:false frames sent" "vic_serve_errors_total"
      (Atomic.get t.errors);
    counter "frames violating framing or JSON" "vic_serve_malformed_total"
      (Atomic.get t.malformed);
    counter "connections lost mid-stream" "vic_serve_disconnects_total"
      (Atomic.get t.disconnects);
    counter "reads that hit the idle timeout" "vic_serve_timeouts_total"
      (Atomic.get t.timeouts);
    counter "dispatch faults contained to one error reply"
      "vic_serve_contained_total" (Atomic.get t.contained);
  ]

(* Replace semantics in the registry: the latest daemon to start owns
   the "serve" collector, which is exactly right for sequential test
   servers.  The reset hook folds these counters into
   [Engine.reset_metrics] coverage. *)
let register_obs t =
  Dlz_obs.Registry.register ~name:"serve" ~reset:(fun () -> reset t)
    (fun () -> obs_samples t)
