(** Structured tracing and latency telemetry.

    One subsystem answers "where does the wall-clock go": scoped {e
    spans} and {e instant events} recorded into per-domain ring buffers
    (recording never takes a cross-domain lock), exported in the Chrome
    [trace_event] JSON format (loadable in [chrome://tracing] or
    Perfetto, one track per domain), plus fixed-bucket log-scale latency
    {e histograms} sharded per domain for [p50/p90/p99/max]-style
    tables.

    Cost model.  The subsystem has three levels: {!Off} (the default)
    makes every entry point a single atomic load and an immediate
    return — unmeasurable on the analysis workloads; {!Timing} records
    histograms only (one clock read and a handful of plain writes to
    domain-local memory per observation); {!Full} additionally records
    span/instant events into the ring buffers.

    High-volume spans can be {e sampled}: a span started with
    [~sample:true] consults the deterministic sampling knob
    ([DLZ_TRACE_SAMPLE], or {!set_sampling}); a sampled-out span
    suppresses its entire subtree, so the exported stream never
    contains orphan children.

    Recording is domain-safe by construction (each domain writes only
    its own buffer); {!events}, {!clear} and the exporters must only be
    called while no other domain is recording (e.g. after the pool has
    been joined). *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds.  The single timing source shared by
    budgets, benches, and the recorder. *)

(** {1 Recording level} *)

type level =
  | Off  (** No recording at all (default). *)
  | Timing  (** Histograms only — powers the latency table. *)
  | Full  (** Histograms + span/instant events in the ring buffers. *)

val level : unit -> level
val set_level : level -> unit
(** Sets the level; at [Full], also allocates the calling domain's ring
    buffer (see {!prepare_domain}). *)

val prepare_domain : unit -> unit
(** Allocates the calling domain's ring buffer now if recording is on,
    so that no span it times later pays for the allocation (a few ms).
    {!set_level} calls it; a pool helper calls it before its first
    span. *)

val timing_on : unit -> bool
(** [level () <> Off]. *)

val recording_on : unit -> bool
(** [level () = Full]. *)

(** {1 Category mask}

    Under {!Full}, spans and instants carry a category ("strategy",
    "pool", "budget", …).  The mask restricts recording to the
    categories named in it, so Full costs only what you actually
    record; the empty category is always enabled (the per-request
    serve span and CLI phase spans cannot be silenced by accident).
    Initialised from [DLZ_TRACE_MASK] (comma-separated), overridden by
    [--trace-mask]. *)

val set_mask : string list option -> unit
(** [set_mask None] enables every category (the default);
    [set_mask (Some cats)] records only spans/instants whose category
    is [""] or a member of [cats]. *)

val mask : unit -> string list option
(** Current mask, sorted and de-duplicated. *)

(** {1 Sampling} *)

val set_sampling : ?seed:int64 -> float -> unit
(** [set_sampling ~seed rate] keeps each [~sample:true] span with
    probability [rate] (clamped to [0, 1]).  The decision is a pure
    function of [seed] and the recording domain's span counter, so a
    given serial run reproduces exactly under the same seed. *)

val sampling : unit -> int64 * float
(** Current [(seed, rate)]. *)

val sampling_of_string : string -> (int64 * float, string) result
(** Parses ["RATE"] or ["SEED:RATE"] — the format of the
    [DLZ_TRACE_SAMPLE] environment variable, read at startup. *)

(** {1 Spans and instant events} *)

type span
(** A token for an open span.  Spans must be finished on the domain
    that started them, in LIFO order (scoped use via {!with_span} is
    the norm). *)

val null_span : span
(** A span that records nothing — what {!start} returns when recording
    is off or the span was sampled out. *)

val is_live : span -> bool
(** True only for a span that will emit an [E] event at {!finish} —
    recording was on and the span was not sampled out.  Hot call sites
    use it to skip building expensive finish-time [args]; {!finish}
    must still be called either way (a sampled-out span tracks
    suppression depth until it closes). *)

val start :
  ?cat:string ->
  ?sample:bool ->
  ?args:(string * string) list ->
  ?lazy_args:(unit -> (string * string) list) ->
  ?ts:int64 ->
  string ->
  span
(** [start name] opens a span: records a [B] event now, and its
    matching [E] at {!finish}.  [args] annotate the begin event;
    attach result-dependent attributes to {!finish} instead.
    [~sample:true] subjects the span to the sampling knob.
    [lazy_args] supersedes [args] when given and is forced only at
    {e export} time — a span that is off, suppressed, sampled out, or
    overwritten in the ring before anyone reads it never formats its
    argument strings.  The thunk must therefore be pure: close over
    immutable data fixed at record time.  [ts] supplies the event
    timestamp when the caller already read the clock (sharing one
    read between a histogram observation and the event), else the
    clock is read here.  A span whose category is masked out records
    nothing and returns a span for which {!finish} is a no-op. *)

val finish :
  ?args:(string * string) list ->
  ?lazy_args:(unit -> (string * string) list) ->
  ?ts:int64 ->
  span ->
  unit
(** [lazy_args]/[ts] as in {!start} — finish-time attributes on hot
    paths should be thunks so a Timing-level run never builds them. *)

val with_span :
  ?cat:string ->
  ?sample:bool ->
  ?args:(string * string) list ->
  ?lazy_args:(unit -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** Scoped {!start}/{!finish}; the span is closed even if [f] raises,
    so exported streams stay balanced. *)

val instant :
  ?cat:string ->
  ?args:(string * string) list ->
  ?lazy_args:(unit -> (string * string) list) ->
  ?ts:int64 ->
  string ->
  unit
(** A zero-duration event ("budget exhausted here").  Instants ignore
    sampling suppression: rare, load-bearing marks always land (unless
    their category is masked out). *)

(** {1 Buffers} *)

val set_buffer_capacity : int -> unit
(** Ring capacity (events) for buffers allocated {e after} this call
    (by {!set_level}, {!prepare_domain} or a domain's first record);
    existing buffers keep their size.  Rounded up
    to a power of two (index masking keeps the push path division
    free).  Default 65536, or [DLZ_TRACE_BUF].  When a ring wraps, the
    oldest events are overwritten and counted as dropped. *)

type phase = B | E | I

type event = {
  ev_seq : int;  (** Per-buffer sequence number (merge tie-break). *)
  ev_ts : int64;  (** {!now_ns} at record time. *)
  ev_ph : phase;
  ev_name : string;
  ev_cat : string;
  ev_args : (string * string) list;
}

val events : unit -> (int * event) list
(** All recorded events as [(domain_id, event)], merged across the
    per-domain buffers in the deterministic order [(ts, domain, seq)].
    Call only when no domain is recording. *)

val dropped : unit -> int
(** Events lost to ring overwrites, across all buffers. *)

val clear : unit -> unit
(** Empties every buffer and resets the sampling/suppression counters
    (so a cleared recorder replays deterministically). *)

(** {1 Chrome trace_event export} *)

val to_chrome_json : unit -> string
(** The merged stream as a Chrome [trace_event] JSON document: [B]/[E]
    duration events and [i] instants, [tid] = domain id (with
    [thread_name] metadata per track), timestamps in microseconds
    relative to the earliest event.  The exporter guarantees balance
    even across ring overwrites: an [E] whose [B] was overwritten is
    skipped, and a [B] still open at export is closed synthetically
    (marked [truncated]). *)

val export_chrome : string -> unit
(** Writes {!to_chrome_json} to a file. *)

(** {1 Latency histograms} *)

module Hist : sig
  (** Fixed-bucket log-scale histogram: 8 buckets per power of two of
      nanoseconds.  Observations land in domain-local shards (plain
      writes, no locks, no cross-domain cache traffic); reads sum the
      shards.  A read racing another domain's in-flight observation
      may miss it, but everything recorded before a join — the pool
      joins its workers before any reporting — is counted exactly. *)

  type t

  val create : unit -> t
  val observe : t -> int64 -> unit
  (** Records a duration in nanoseconds (negative clamps to 0). *)

  val count : t -> int
  val total_ns : t -> int64
  val max_ns : t -> int64

  val percentile : t -> float -> float
  (** [percentile t q] estimates the [q]-quantile in nanoseconds
      ([q] clamped to [0, 1]) as the geometric midpoint of the bucket
      holding that rank, capped at the exact observed max; [0.] when
      empty. *)

  val merged : t list -> t
  (** A fresh histogram holding the bucket-wise sum of the inputs — a
      point-in-time snapshot, not a live view.  Because every histogram
      shares the same bucket layout, percentiles of the merge are exact:
      recording once into a partition (say per cache disposition) and
      merging for the aggregate row costs the hot path one observation
      instead of two. *)

  val reset : t -> unit

  val snapshot : t -> Dlz_obs.Registry.hist_snapshot
  (** Exposition snapshot: count/sum/max, p50/p99, and cumulative
      counts at per-octave boundaries ([le = 2^(o+1) - 1] ns,
      inclusive), trimmed at the octave holding the observed max (the
      implicit +Inf bucket covers the rest).  Deterministic for a
      given set of recorded durations. *)

  val family :
    ?group:Dlz_obs.Family.group ->
    ?labels:string list ->
    ?forget:bool ->
    help:string ->
    string ->
    t Dlz_obs.Family.t
  (** A family of histograms (see {!Dlz_obs.Family.make}); empty ones
      are left out of the scrape. *)

  val buckets : int
  (** Number of buckets. *)

  val bucket_of_ns : int64 -> int
  (** Monotone bucket index for a duration. *)

  val bucket_bounds : int -> float * float
  (** [lo, hi) in nanoseconds covered by a bucket (bucket 0 reaches
      down to 0). *)
end

val hist : string -> Hist.t
(** The process-wide named histograms ("strategy.gcd", "query",
    "cache.miss", …), exposed as the [vic_latency_ns{op}] family:
    finds or creates.  Cache the handle on genuinely hot paths. *)

val observe_ns : string -> int64 -> unit
(** [Hist.observe (hist name)] when {!timing_on}, else nothing. *)

val time : string -> (unit -> 'a) -> 'a
(** Runs [f], observing its duration into [hist name] when
    {!timing_on} (duration is recorded even if [f] raises). *)

val hist_rows : unit -> (string * Hist.t) list
(** Registry snapshot, sorted by name. *)

val reset_hists : unit -> unit
(** Zeroes every registered histogram (handles stay valid). *)
