(** The bounded accept queue between the accept loop and the workers.

    Capacity is a hard bound: a full queue sheds immediately
    ([try_admit] never blocks), which is what lets the server answer
    overload with an explicit reply instead of unbounded queueing.
    Domain-safe; one mutex, uncontended except at hand-off. *)

type 'a t
type verdict = Admitted | Shed | Closed

val create : capacity:int -> 'a t
(** [capacity] is clamped to at least 1. *)

val try_admit : 'a t -> 'a -> verdict
(** Non-blocking.  The caller counts the outcome (the server counts
    into its [Metrics.accepted]/[Metrics.shed]). *)

val take : 'a t -> 'a option
(** Blocks until an item or close.  After {!close}, drains remaining
    items before returning [None] — admitted work is never dropped. *)

val close : 'a t -> unit
(** Idempotent; wakes all blocked takers. *)
