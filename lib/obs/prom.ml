(* Prometheus text exposition (format 0.0.4).

   Determinism is the contract: samples arrive sorted from
   Registry.collect, families are emitted in name order, labels in
   the order the collector rendered them (collectors render sorted),
   and gauge values use the JSON codec's value-deterministic number
   rule ([Jsonx.number]) — so the same metric state produces
   byte-identical text at any --jobs N. *)

open Registry

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  Label names drop the
   colon.  Anything else becomes '_'. *)
let sanitize_name s =
  if s = "" then "_"
  else
    String.mapi
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
        | '0' .. '9' when i > 0 -> c
        | _ -> '_')
      s

let sanitize_label_name s =
  if s = "" then "_"
  else
    String.mapi
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' -> c
        | '0' .. '9' when i > 0 -> c
        | _ -> '_')
      s

(* Label values take any UTF-8; backslash, double-quote and newline
   are escaped per the exposition format. *)
let escape_label_value s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* HELP text escapes backslash and newline only (no quotes there). *)
let escape_help s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let add_labels b labels =
  match labels with
  | [] -> ()
  | labels ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (sanitize_label_name k);
          Buffer.add_string b "=\"";
          Buffer.add_string b (escape_label_value v);
          Buffer.add_char b '"')
        labels;
      Buffer.add_char b '}'

let add_line b name labels value =
  Buffer.add_string b name;
  add_labels b labels;
  Buffer.add_char b ' ';
  Buffer.add_string b value;
  Buffer.add_char b '\n'

let type_of_value = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

(* Each histogram sample also yields derived <name>_p50 / <name>_p99
   gauge samples — the at-a-glance latency numbers the ISSUE promises
   per client and verb, scrapeable without a quantile query layer. *)
let expand samples =
  List.concat_map
    (fun s ->
      match s.s_value with
      | Hist h ->
          [
            s;
            {
              s with
              s_name = s.s_name ^ "_p50";
              s_help = "p50 of " ^ s.s_name;
              s_value = Gauge h.h_p50_ns;
            };
            {
              s with
              s_name = s.s_name ^ "_p99";
              s_help = "p99 of " ^ s.s_name;
              s_value = Gauge h.h_p99_ns;
            };
          ]
      | _ -> [ s ])
    samples

let write_sample b s =
  let name = sanitize_name s.s_name in
  match s.s_value with
  | Counter n -> add_line b name s.s_labels (string_of_int n)
  | Gauge f -> add_line b name s.s_labels (Jsonx.number f)
  | Hist h ->
      List.iter
        (fun (le, cum) ->
          add_line b (name ^ "_bucket")
            (s.s_labels @ [ ("le", Int64.to_string le) ])
            (string_of_int cum))
        h.h_buckets;
      add_line b (name ^ "_bucket")
        (s.s_labels @ [ ("le", "+Inf") ])
        (string_of_int h.h_count);
      add_line b (name ^ "_sum") s.s_labels (Int64.to_string h.h_sum_ns);
      add_line b (name ^ "_count") s.s_labels (string_of_int h.h_count)

let write b samples =
  let samples =
    expand samples |> List.stable_sort Registry.compare_sample
  in
  let rec families = function
    | [] -> ()
    | s :: _ as rest ->
        let fam, rest =
          List.partition (fun x -> x.s_name = s.s_name) rest
        in
        let name = sanitize_name s.s_name in
        let help =
          match List.find_opt (fun x -> x.s_help <> "") fam with
          | Some x -> x.s_help
          | None -> name
        in
        Buffer.add_string b
          (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" name (type_of_value s.s_value));
        List.iter (write_sample b) fam;
        families rest
  in
  families samples

let to_string samples =
  let b = Buffer.create 4096 in
  write b samples;
  Buffer.contents b
