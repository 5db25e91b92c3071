(* Plain-text view of a sample list: the --stats readout.

   The third renderer next to Prom and Snap, and like them a pure
   function of the samples, so `--stats` shows exactly what a scrape
   shows: every sample, zeros included.  It pads its own columns
   because Dlz_base.Table sits above this library. *)

open Registry

type sort = By_name | By_attempts | By_time

let ns_string ns =
  if ns < 1_000. then Printf.sprintf "%.0fns" ns
  else if ns < 1_000_000. then Printf.sprintf "%.1fus" (ns /. 1_000.)
  else if ns < 1_000_000_000. then Printf.sprintf "%.2fms" (ns /. 1_000_000.)
  else Printf.sprintf "%.3fs" (ns /. 1_000_000_000.)

let series s =
  let label (k, v) = Printf.sprintf "%s=\"%s\"" k (Prom.escape_label_value v) in
  if s.s_labels = [] then s.s_name
  else
    Printf.sprintf "%s{%s}" s.s_name
      (String.concat "," (List.map label s.s_labels))

(* Registry order, except that within one family the sort key orders
   rows descending: counter values for [By_attempts], histogram totals
   for [By_time]. *)
let order sort samples =
  let key s =
    match (sort, s.s_value) with
    | By_attempts, Counter n -> Int64.of_int n
    | By_time, Hist h -> h.h_sum_ns
    | _ -> 0L
  in
  List.stable_sort
    (fun a b ->
      match String.compare a.s_name b.s_name with
      | 0 -> (
          match Int64.compare (key b) (key a) with
          | 0 -> compare a.s_labels b.s_labels
          | c -> c)
      | c -> c)
    samples

(* Column 0 left-aligned, the rest right-aligned, two spaces apart. *)
let table b = function
  | [] -> ()
  | first :: _ as rows ->
      let widths =
        List.fold_left
          (List.map2 (fun w cell -> max w (String.length cell)))
          (List.map (fun _ -> 0) first)
          rows
      in
      List.iter
        (fun row ->
          List.iteri
            (fun i (w, cell) ->
              if i = 0 then Printf.bprintf b "%-*s" w cell
              else Printf.bprintf b "  %*s" w cell)
            (List.combine widths row);
          Buffer.add_char b '\n')
        rows

let to_string ?(sort = By_name) samples =
  let ns64 n = ns_string (Int64.to_float n) in
  let scalars, hists =
    List.partition_map
      (fun s ->
        match s.s_value with
        | Counter n -> Either.Left [ series s; string_of_int n ]
        | Gauge f -> Either.Left [ series s; Jsonx.number f ]
        | Hist h ->
            Either.Right
              [ series s; string_of_int h.h_count; ns_string h.h_p50_ns;
                ns_string h.h_p99_ns; ns64 h.h_max_ns; ns64 h.h_sum_ns ])
      (order sort samples)
  in
  let b = Buffer.create 4096 in
  table b scalars;
  if hists <> [] then begin
    if scalars <> [] then Buffer.add_char b '\n';
    table b ([ "histogram"; "count"; "p50"; "p99"; "max"; "total" ] :: hists)
  end;
  Buffer.contents b
