(** Versioned JSON snapshot codec for metric samples.

    The machine-readable twin of {!Prom}: the [metrics] verb's JSON
    format, [--metrics-dump] NDJSON rows, and the unified
    [--stats-json] "obs" block all carry this shape.

    Shape (version 1):
    {v
    {"version":1,"metrics":[
      {"name":N,"labels":{..},"kind":"counter","value":I},
      {"name":N,"labels":{..},"kind":"gauge","value":F},
      {"name":N,"labels":{..},"kind":"histogram","count":I,
       "sum_ns":I,"max_ns":I,"p50_ns":F,"p99_ns":F,
       "buckets":[[le_ns,cumulative],..]}]}
    v}

    Consumers must check [version] and refuse shapes they do not
    know; any structural change bumps it. *)

val version : int

val to_json : Registry.sample list -> Jsonx.t
