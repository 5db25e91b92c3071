(* Workload inputs: the vendored corpus and its golden report, and the
   seeded query and request streams.  The same seed always gives the
   same inputs; the corpus workloads do not depend on the seed at all,
   because the corpus is fixed and bulk analysis sorts its files. *)

module Prng = Dlz_base.Prng
module Eqgen = Dlz_oracle.Eqgen
module Jsonx = Dlz_serve.Jsonx
module Proto = Dlz_serve.Proto

let corpus_dir = "corpus/polybench"
let golden_file = Filename.concat corpus_dir "GOLDEN.ndjson"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

(* The golden report was recorded under a fault-injection seed, which
   changes only which strategy decided some pairs.  The comparison
   drops the [decided_by] object (it holds no nested braces) on both
   sides. *)
let strip_decided_by line =
  match find_sub line ",\"decided_by\":{" with
  | None -> line
  | Some i ->
      let j = String.index_from line i '}' in
      String.sub line 0 i ^ String.sub line (j + 1) (String.length line - j - 1)

let golden_lines () = List.map strip_decided_by (read_lines golden_file)

(* The golden report line of every kernel, by file name. *)
let golden_by_file () =
  List.filter_map
    (fun line ->
      match Jsonx.parse line with
      | Ok j -> Option.map (fun f -> (f, j)) (Option.bind (Jsonx.member "file" j) Jsonx.to_str)
      | Error e -> failwith ("golden: " ^ e))
    (read_lines golden_file)

let kernels () = Dlz_driver.Bulk.kernels corpus_dir

(* {1 query-stream} *)

let query_count = 5000
let query_cases ~seed = Array.of_list (Eqgen.all ~seed:(Int64.of_int seed) ~count:query_count)

(* {1 serve-mix} *)

type op = Ping | Query of Eqgen.case | Analyze of string

(* [id] is the request's ["id"] field, unique over both lists. *)
type request = { id : int; op : op; json : Jsonx.t }

let op_name = function Ping -> "ping" | Query _ -> "query" | Analyze _ -> "analyze"

(* Client connections the load generator keeps open. *)
let clients = 2

(* Requests per client: an untimed warm-up, then the timed list, 12
   analyzes of every corpus kernel in blocks of 8 (4032 requests with
   two clients). *)
let warmup_per_client = 100
let rounds = 12

(* One client's requests: blocks of 8, each a seeded permutation of six
   queries, one ping and one analyze; the analyzed kernels run through
   the corpus in rounds, each round in a fresh seeded order.  [queries]
   are consumed in order; the list is cut at [count]. *)
let client_requests g ~files ~sources ~queries ~count =
  let files = Array.copy files in
  let ops = ref [] and q = ref 0 in
  for b = 0 to (count - 1) / 8 do
    let k = b mod Array.length files in
    if k = 0 then Prng.shuffle g files;
    let block = [| `Query; `Query; `Query; `Query; `Query; `Query; `Ping; `Analyze |] in
    Prng.shuffle g block;
    Array.iter
      (fun kind ->
        let op =
          match kind with
          | `Ping -> Ping
          | `Query ->
              incr q;
              Query queries.(!q - 1)
          | `Analyze -> Analyze files.(k)
        in
        ops := op :: !ops)
      block
  done;
  List.rev !ops
  |> List.filteri (fun i _ -> i < count)
  |> List.map (fun op ->
         ( op,
           match op with
           | Ping -> [ ("op", Jsonx.Str "ping") ]
           | Query c ->
               [ ("op", Jsonx.Str "query"); ("problem", Proto.problem_to_json c.Eqgen.ground) ]
           | Analyze f ->
               [
                 ("op", Jsonx.Str "analyze");
                 ("lang", Jsonx.Str "c");
                 ("source", Jsonx.Str (List.assoc f sources));
               ] ))

(* The warm-up and the timed request lists, interleaved by client:
   client [c] sends entries [c], [c + clients], ... of each.  Every query
   is a distinct seeded Eqgen ground problem (the families shuffled
   together, so both clients get the same mix), so a query's first
   answer in a pass is solved, not replayed from the cache; a kernel's
   first analyze in a pass solves its pairs, later ones hit.  Every
   client, under every seed, analyzes each kernel equally often. *)
let serve_requests ~seed =
  let g = Prng.create (Int64.of_int seed) in
  let files = Array.of_list (kernels ()) in
  let sources =
    Array.to_list (Array.map (fun f -> (f, read_file (Filename.concat corpus_dir f))) files)
  in
  let timed_per_client = 8 * rounds * Array.length files in
  let per_client = warmup_per_client + timed_per_client in
  let queries = Array.of_list (Eqgen.all ~seed:(Prng.next64 g) ~count:(clients * per_client)) in
  Prng.shuffle g queries;
  let interleave ~base lists =
    let lists = Array.of_list (List.map Array.of_list lists) in
    let n = Array.length lists.(0) in
    Array.init (clients * n) (fun i ->
        let op, fields = lists.(i mod clients).(i / clients) in
        let id = base + i in
        { id; op; json = Jsonx.Obj (("id", Jsonx.Int id) :: fields) })
  in
  let split c =
    (* Each client draws from its own slice of the query pool. *)
    let own = Array.sub queries (c * per_client) per_client in
    let warm = client_requests g ~files ~sources ~queries:own ~count:warmup_per_client in
    let used = List.length (List.filter (function Query _, _ -> true | _ -> false) warm) in
    let timed =
      client_requests g ~files ~sources
        ~queries:(Array.sub own used (per_client - used))
        ~count:timed_per_client
    in
    (warm, timed)
  in
  let per = List.init clients split in
  ( interleave ~base:(clients * timed_per_client) (List.map fst per),
    interleave ~base:0 (List.map snd per) )

(* {1 Digests, for the self-check} *)

let digest_cases cases =
  Array.to_list cases
  |> List.map (fun (c : Eqgen.case) ->
         c.Eqgen.id ^ " " ^ Jsonx.to_string (Proto.problem_to_json c.Eqgen.ground))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let digest_requests reqs =
  Array.to_list reqs
  |> List.map (fun r -> Jsonx.to_string r.json)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex
