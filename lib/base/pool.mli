(** A domain pool (OCaml 5 [Domain] + [Mutex] / [Condition], no
    external dependencies).

    The dependence engine's pair queries are embarrassingly parallel;
    this pool is the one place that owns domains for them.  A pool of
    size [n] uses [n]-way parallelism: [n - 1] spawned worker domains
    plus the calling domain, which takes chunks alongside the workers
    while a {!map} call is in flight (so a 2-domain pool really runs
    two chunks at once and no domain sits idle).

    Scheduling is one shared counter: a {!map} cuts its input into
    chunks of [max 1 (n / (8 * width))] elements, wakes the parked
    workers once, and every domain (the caller included) takes the
    next chunk index from one [Atomic] counter until none is left.  A
    domain stuck on a slow chunk simply takes no more; the others
    finish the rest.  Scheduling decides only {e who} runs a chunk;
    results always land by element index, so the output is
    byte-identical for every pool size.

    [create ~domains:1] (or less) builds the {e sequential} pool:
    {!map} degrades to a plain [Array.map] on the calling domain, no
    domain is ever spawned, and evaluation order is exactly
    left-to-right — single-core behavior and traces are bit-identical
    to the pre-pool code.

    A pool is meant to be driven from one domain at a time; concurrent
    {!map} calls on the same pool are not supported. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] workers ([domains <= 1]:
    none — the sequential pool). *)

val domains : t -> int
(** The parallelism width ([1] for the sequential pool). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] is [Array.map f arr], computed in parallel in
    contiguous chunks.  Results land by index, not by completion order,
    so the output is deterministic and independent of scheduling.
    Exceptions from [f] are contained per element: a raising job never
    kills a worker domain, never skips the other elements of its
    chunk, and never deadlocks the caller; every element is attempted,
    and then the failure at the {e lowest index} (the one the
    sequential path would hit first) is re-raised in the caller.  [f]
    must be safe to run on any domain. *)

val shutdown : t -> unit
(** Stops and joins the workers.  Idempotent; the sequential pool is a
    no-op.  Only call once no [map] is in flight. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] on a fresh pool and guarantees
    {!shutdown}, whether [f] returns or raises. *)

val resolve_jobs : int -> int
(** The CLI's [--jobs] convention: [0] means
    [Domain.recommended_domain_count ()], positive counts are
    themselves.  Raises [Invalid_argument] on negatives. *)

val with_jobs : jobs:int -> (t option -> 'a) -> 'a
(** The one place a job count becomes a pool: [jobs] (per
    {!resolve_jobs}) domains are spun up for the duration of [f] — or
    none at all when [jobs <= 1], in which case [f] receives [None] and
    must take its exact serial path.  Library entry points take the
    resulting [?pool], never a job count. *)
