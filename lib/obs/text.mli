(** Plain-text view of a sample list, the [--stats] readout.

    The human twin of {!Prom} and {!Snap}: every sample it is given,
    zeros included, so [--stats] shows exactly what a scrape of the
    same {!Registry.collect} shows.  Two padded tables, one blank line
    apart: counters and gauges as [name{labels} value] (gauges printed
    with {!Jsonx.number}), then histograms as
    [name{labels} count p50 p99 max total] under a header row, each
    latency in the largest unit that keeps it at or above 1 ([850ns],
    [1.6us], [2.31ms], [1.250s]). *)

type sort =
  | By_name  (** Registry order: (name, labels). *)
  | By_attempts  (** Within each counter family, larger values first. *)
  | By_time  (** Within each histogram family, larger totals first. *)

val to_string : ?sort:sort -> Registry.sample list -> string
(** Both tables, newline-terminated; [sort] defaults to {!By_name}.
    The histogram table is left out when no sample is a histogram. *)
