(** Domain-safe metric registry.

    Subsystems register {e collectors} — thunks that render their live
    counters into plain {!sample}s at scrape time — under a stable
    name.  The registry holds no metric state itself: hot paths keep
    their own [Atomic.t]s and domain-local shards, and the only shared
    structure here is a mutex-guarded table touched at
    register/collect/reset time.

    Registration has replace semantics (same name → latest collector
    wins), so a process that starts servers sequentially — tests,
    bench — always scrapes the live one.

    {!collect} output is sorted by (metric name, labels): two scrapes
    of the same state render byte-identically downstream, for any
    number of domains. *)

type hist_snapshot = {
  h_count : int;
  h_sum_ns : int64;
  h_max_ns : int64;
  h_p50_ns : float;
  h_p99_ns : float;
  h_buckets : (int64 * int) list;
      (** [(upper_bound_ns, cumulative_count)], ascending by bound.
          The +Inf bucket is implicit and equals [h_count]. *)
}

type value = Counter of int | Gauge of float | Hist of hist_snapshot

type sample = {
  s_name : string;  (** metric family name, e.g. [vic_engine_queries_total] *)
  s_help : string;
  s_labels : (string * string) list;
  s_value : value;
}

val sample :
  ?help:string -> ?labels:(string * string) list -> string -> value -> sample

type collector = {
  c_collect : unit -> sample list;
  c_reset : (unit -> unit) option;
}

val register : name:string -> ?reset:(unit -> unit) -> (unit -> sample list) -> unit
(** [register ~name ?reset collect] installs (or replaces) the
    collector [name].  [reset], when given, is run by {!reset_all} —
    the hook that folds this subsystem into [Engine.reset_metrics]
    coverage. *)

val unregister : string -> unit

val compare_sample : sample -> sample -> int
(** Order by (name, labels) — the exposition order. *)

val counter :
  ?labels:(string * string) list -> sample list -> string -> int option
(** [counter ~labels samples name] is the count of the counter sample
    [name] with exactly [labels] (default none), if [samples] holds
    one. *)

val collect : unit -> sample list
(** Every registered collector's samples, sorted by (name, labels).
    Collector thunks run outside the registry lock. *)

val reset_all : unit -> unit
(** Run every registered reset hook (collector-name order). *)
