(** Deterministic fault injection at strategy boundaries.

    The chaos harness exists to prove the engine's containment
    invariants under test: with injection enabled, analysis must still
    terminate, verdicts may only degrade toward "dependent", and
    parallel output must equal serial output.  To make the last one
    hold, injection is {e content-keyed}: whether a strike happens for
    a given (strategy, problem) pair is a pure function of the seed and
    the pair, never of timing, scheduling, or query order — so [--jobs
    8] meets exactly the same faults as [--jobs 1].

    Enable it with [DLZ_CHAOS=<seed>:<rate>] in the environment (picked
    up at startup) or programmatically with {!set_current} /
    the [?chaos] argument of {!Cascade.run}.  [rate] is a fault
    probability in [0, 1].  Four fault kinds are injected with equal
    probability, each exercising a different containment path:
    an opaque exception, [Intx.Overflow "chaos"],
    [Budget.Exhausted "chaos"], and [Injected "unknown"] (a strategy
    "returning garbage", which the cascade treats like any other
    fault). *)

exception Injected of string
(** The opaque injected failure; the payload is the fault kind
    ("raise" or "unknown"). *)

type t

val make : seed:int64 -> rate:float -> t
(** [rate] is clamped to [0, 1]. *)

val seed : t -> int64
val rate : t -> float

val of_string : string -> (t, string) result
(** Parses ["<seed>:<rate>"], e.g. ["42:0.1"]. *)

val to_string : t -> string
(** Round-trips through {!of_string}; fault counters are not part of
    the representation. *)

val current : unit -> t option
(** The process-wide configuration: initialized from [DLZ_CHAOS] at
    startup, overridden by {!set_current}.  [Cascade.run] consults it
    when no explicit [?chaos] is given. *)

val set_current : t option -> unit

val strikes : t -> int
(** Total faults injected through this configuration so far — each one
    is matched by exactly one degradation recorded in {!Stats}. *)

val strike : t -> strategy:string -> Dlz_deptest.Problem.t -> unit
(** Called by the cascade just before running [strategy] on the
    problem.  Deterministically decides whether to inject a fault for
    this (strategy, problem) pair and, if so, counts it and raises. *)

val would_strike : t -> strategy:string -> Dlz_deptest.Problem.t -> bool
(** Whether {!strike} raises for this pair; counts nothing.  The engine
    asks it before the cache lookup, so a struck problem is solved (and
    struck) on every query instead of being answered by a same-key
    problem's cached result. *)

(** {2 Socket-boundary strikes}

    The serve layer injects faults at frame boundaries rather than
    strategy boundaries: a frame may arrive torn (bytes mangled
    mid-payload), the peer may vanish mid-stream, or a write may crawl
    byte-group by byte-group (a cooperating slow-loris).  These return
    a fault for the caller to {e enact} instead of raising, because
    the right enactment differs per boundary (mangle vs close vs
    stall). *)

type io_fault =
  | Torn_frame  (** deliver a corrupted frame / abort mid-write *)
  | Disconnect  (** the connection drops at this boundary *)
  | Slow_write  (** the transfer proceeds in tiny stalled pieces *)

val io_strike : t -> point:string -> key:string -> io_fault option
(** Content-keyed like {!strike} on (point, key) — [point] names the
    boundary (["frame.read"], ["frame.write"]) and [key] is the frame
    payload — so the same frame meets the same fault on every run.
    Counts toward {!strikes} when a fault fires. *)
