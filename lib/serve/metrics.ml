(* Serve-layer counters, all Atomic so every domain records freely.
   The engine-side numbers (cache hits, degradations, ...) live in
   [Dlz_engine.Stats]; these cover what only the daemon can see:
   connections, frames, faults at the socket boundary, shed load.
   Each field is a cell of one of the [vic_serve_*] families. *)

module F = Dlz_obs.Family

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
  families : F.group;
}

let create () =
  let group = F.group () in
  let one name help = F.cell (F.counter ~group ~help name) [] in
  let connections =
    F.counter ~group ~labels:[ "outcome" ]
      ~help:"connections by admission outcome" "vic_serve_connections_total"
  in
  {
    accepted = F.cell connections [ "accepted" ];
    shed = F.cell connections [ "shed" ];
    rejected_draining = F.cell connections [ "rejected_draining" ];
    (* A live gauge: a reset must not touch it, or the next disconnect
       would take it negative. *)
    active =
      F.cell
        (F.gauge ~group ~live:true ~help:"connections being served right now"
           "vic_serve_active")
        [];
    requests = one "vic_serve_requests_total" "well-framed requests received";
    responses = one "vic_serve_responses_total" "ok:true frames sent";
    errors = one "vic_serve_errors_total" "ok:false frames sent";
    malformed =
      one "vic_serve_malformed_total" "frames violating framing or JSON";
    disconnects =
      one "vic_serve_disconnects_total" "connections lost mid-stream";
    timeouts = one "vic_serve_timeouts_total" "reads that hit the idle timeout";
    contained =
      one "vic_serve_contained_total"
        "dispatch faults contained to one error reply";
    families = group;
  }

(* Replace semantics in the registry: the latest daemon to start owns
   the "serve" collector, which is exactly right for sequential test
   servers.  The reset hook folds these counters into
   [Engine.reset_metrics] coverage. *)
let register_obs t = F.register ~name:"serve" t.families
