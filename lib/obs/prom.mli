(** Prometheus text exposition writer (format 0.0.4).

    Deterministic by construction: families in metric-name order, one
    [# HELP]/[# TYPE] header per family, histogram samples rendered as
    cumulative [_bucket]/[_sum]/[_count] lines with an explicit
    [+Inf] bucket, and every histogram additionally exposed as derived
    [<name>_p50] / [<name>_p99] gauge families.  The same sample list
    always renders to byte-identical text. *)

val sanitize_name : string -> string
(** Clamp to the metric-name charset [[a-zA-Z_:][a-zA-Z0-9_:]*]
    (invalid characters become ['_']). *)

val escape_label_value : string -> string
(** Escape backslash, double-quote and newline for a label value
    body. *)

val to_string : Registry.sample list -> string
