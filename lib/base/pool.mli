(** A parallelism width and a map over it (OCaml 5 [Domain] and
    [Atomic], no external dependencies).

    The dependence engine's pair queries are embarrassingly parallel;
    {!map} is the one place that runs them on several domains.  A pool
    is only a width: making one spawns nothing, and no domain outlives
    the {!map} that spawned it.

    A {!map} cuts its input into chunks of [max 1 (n / (8 * width))]
    elements and takes chunk indices from one [Atomic] counter.  The
    calling domain starts alone.  After each element it checks whether
    it has spent longer on the map than the last spawn of helpers took
    (1 ms before any spawn has been measured) and whether chunks are
    still left; if both hold, it spawns [width - 1] helper domains
    once, which drain the same counter.  A map shorter than a spawn so
    runs entirely on the caller, and a long one pays for its helpers
    only after it has already spent as much running alone.  The map
    joins every helper before it returns.  If a spawn fails (past the
    runtime's domain limit), spawning stops and the domains already
    running finish the map.

    Scheduling decides only {e who} runs a chunk; results always land
    by element index, so the output is byte-identical for every width.
    A width of [1] (or less) makes {!map} a plain [Array.map] on the
    calling domain, evaluated left to right. *)

type t

val domains : t -> int
(** The parallelism width ([1] for a sequential pool). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] is [Array.map f arr], computed in contiguous
    chunks, possibly in parallel.  Results land by index, not by
    completion order, so the output is deterministic and independent
    of scheduling.  Exceptions from [f] are contained per element: a
    raising job never kills a helper domain and never skips the other
    elements of its chunk; every element is attempted, and then the
    failure at the {e lowest index} (the one the sequential path would
    hit first) is re-raised in the caller.  [f] must be safe to run on
    any domain. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] on a pool of width [domains]
    (at least 1).  It spawns nothing; each {!map} spawns and joins its
    own helpers. *)

val resolve_jobs : int -> int
(** The CLI's [--jobs] convention: [0] means
    [Domain.recommended_domain_count ()], positive counts are
    themselves.  Raises [Invalid_argument] on negatives. *)

val with_jobs : jobs:int -> (t option -> 'a) -> 'a
(** The one place a job count becomes a pool: [f] gets a pool of width
    [jobs] (per {!resolve_jobs}), or [None] when [jobs <= 1], in which
    case it must take its exact serial path.  Library entry points take
    the resulting [?pool], never a job count. *)
