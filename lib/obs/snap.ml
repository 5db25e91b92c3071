(* Versioned JSON snapshot of a sample list.

   This is the machine side of the exposition plane: the `metrics`
   verb's "json" format, the --metrics-dump NDJSON rows, and the
   unified --stats-json "obs" block all carry this shape.  The format
   is versioned so a consumer can refuse a shape it does not know —
   bump `version` on any structural change. *)

open Registry

let version = 1

let sample s =
  let value =
    match s.s_value with
    | Counter n -> [ ("kind", Jsonx.Str "counter"); ("value", Jsonx.Int n) ]
    | Gauge f -> [ ("kind", Jsonx.Str "gauge"); ("value", Jsonx.Float f) ]
    | Hist h ->
        [
          ("kind", Jsonx.Str "histogram");
          ("count", Jsonx.Int h.h_count);
          ("sum_ns", Jsonx.Int (Int64.to_int h.h_sum_ns));
          ("max_ns", Jsonx.Int (Int64.to_int h.h_max_ns));
          ("p50_ns", Jsonx.Float h.h_p50_ns);
          ("p99_ns", Jsonx.Float h.h_p99_ns);
          ( "buckets",
            Jsonx.List
              (List.map
                 (fun (le, cum) ->
                   Jsonx.List [ Jsonx.Int (Int64.to_int le); Jsonx.Int cum ])
                 h.h_buckets) );
        ]
  in
  Jsonx.Obj
    (("name", Jsonx.Str s.s_name)
    :: ( "labels",
         Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) s.s_labels) )
    :: value)

let to_json samples =
  Jsonx.Obj
    [
      ("version", Jsonx.Int version);
      ("metrics", Jsonx.List (List.map sample samples));
    ]
