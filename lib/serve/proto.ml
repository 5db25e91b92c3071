module Problem = Dlz_deptest.Problem
module Depeq = Dlz_deptest.Depeq
module Dirvec = Dlz_deptest.Dirvec
module Verdict = Dlz_deptest.Verdict
module Poly = Dlz_symbolic.Poly
module Strategy = Dlz_engine.Strategy

(* {2 Requests} *)

type request =
  | Ping
  | Metrics of { format : [ `Prom | `Json ] }
  | Shutdown
  | Query of { problem : Problem.t; fuel : int option; timeout_ms : int option }
  | Analyze of {
      lang : Dlz_passes.Pipeline.lang;
      source : string;
      assume : (string * int) list;
      fuel : int option;
      timeout_ms : int option;
    }

let op_name = function
  | Ping -> "ping"
  | Metrics _ -> "metrics"
  | Shutdown -> "shutdown"
  | Query _ -> "query"
  | Analyze _ -> "analyze"

(* Shape bounds on decoded problems.  A request above these is not a
   dependence equation from a real loop nest, it is a resource attack;
   the engine's own budgets bound solving, these bound decoding. *)
let max_eqs = 64
let max_terms = 64
let max_levels = 64
let max_source_bytes = 1 lsl 20

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let int_field ?default j name =
  match Jsonx.member name j with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> fail "missing integer field %S" name)
  | Some v -> (
      match Jsonx.to_int v with
      | Some n -> Ok n
      | None -> fail "field %S must be an integer" name)

let opt_int_field j name =
  match Jsonx.member name j with
  | None -> Ok None
  | Some v -> (
      match Jsonx.to_int v with
      | Some n -> Ok (Some n)
      | None -> fail "field %S must be an integer" name)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let term_of_json j =
  let* coeff = int_field j "coeff" in
  let* level = int_field j "level" in
  let* ub = int_field j "ub" in
  let* side =
    match Jsonx.member "side" j with
    | Some (Jsonx.Str "src") -> Ok `Src
    | Some (Jsonx.Str "dst") -> Ok `Dst
    | _ -> fail "field \"side\" must be \"src\" or \"dst\""
  in
  let name =
    match Option.bind (Jsonx.member "name" j) Jsonx.to_str with
    | Some n -> n
    | None ->
        Printf.sprintf "%c%d" (match side with `Src -> 'i' | `Dst -> 'j') level
  in
  if ub < 0 then fail "term upper bound %d is negative" ub
  else if level < 0 || level > max_levels then fail "bad level %d" level
  else Ok (coeff, Depeq.var ~side ~level name ub)

let eq_of_json j =
  let* c0 = int_field ~default:0 j "c0" in
  let* terms =
    match Option.bind (Jsonx.member "terms" j) Jsonx.to_list with
    | None -> fail "equation needs a \"terms\" array"
    | Some ts when List.length ts > max_terms ->
        fail "more than %d terms" max_terms
    | Some ts ->
        List.fold_left
          (fun acc t ->
            let* acc = acc in
            let* t = term_of_json t in
            Ok (t :: acc))
          (Ok []) ts
        |> Result.map List.rev
  in
  match Depeq.make c0 terms with
  | eq -> Ok eq
  | exception Invalid_argument m -> fail "bad equation: %s" m

let numeric_of_json j =
  let* n_common = int_field ~default:0 j "n_common" in
  let* opaque_dims = int_field ~default:0 j "opaque_dims" in
  let* common_ubs =
    match Jsonx.member "common_ubs" j with
    | None -> Ok [||]
    | Some (Jsonx.List xs) ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            match Jsonx.to_int x with
            | Some n when n >= 0 -> Ok (n :: acc)
            | Some n -> fail "negative common upper bound %d" n
            | None -> fail "\"common_ubs\" must hold integers")
          (Ok []) xs
        |> Result.map (fun l -> Array.of_list (List.rev l))
    | Some _ -> fail "\"common_ubs\" must be an array"
  in
  if n_common < 0 || n_common > max_levels then fail "bad n_common %d" n_common
  else if opaque_dims < 0 then fail "bad opaque_dims %d" opaque_dims
  else if Array.length common_ubs <> n_common then
    fail "common_ubs has %d entries for n_common %d" (Array.length common_ubs)
      n_common
  else
    let* eqs =
      match Option.bind (Jsonx.member "eqs" j) Jsonx.to_list with
      | None -> fail "problem needs an \"eqs\" array"
      | Some es when List.length es > max_eqs ->
          fail "more than %d equations" max_eqs
      | Some es ->
          List.fold_left
            (fun acc e ->
              let* acc = acc in
              let* eq = eq_of_json e in
              Ok (eq :: acc))
            (Ok []) es
          |> Result.map List.rev
    in
    Ok { Problem.n_common; common_ubs; eqs; opaque_dims }

let problem_of_json j = Result.map Problem.synthetic (numeric_of_json j)

let var_to_json (v : Depeq.var) =
  Jsonx.Obj
    [
      ("side", Jsonx.Str (match v.Depeq.v_side with `Src -> "src" | `Dst -> "dst"));
      ("level", Jsonx.Int v.Depeq.v_level);
      ("ub", Jsonx.Int v.Depeq.v_ub);
      ("name", Jsonx.Str v.Depeq.v_name);
    ]

let eq_to_json (eq : Depeq.t) =
  Jsonx.Obj
    [
      ("c0", Jsonx.Int eq.Depeq.c0);
      ( "terms",
        Jsonx.List
          (List.map
             (fun (t : Depeq.term) ->
               match var_to_json t.Depeq.var with
               | Jsonx.Obj fields ->
                   Jsonx.Obj (("coeff", Jsonx.Int t.Depeq.coeff) :: fields)
               | j -> j)
             eq.Depeq.terms) );
    ]

let problem_to_json (np : Problem.numeric) =
  Jsonx.Obj
    [
      ("n_common", Jsonx.Int np.Problem.n_common);
      ( "common_ubs",
        Jsonx.List
          (Array.to_list (Array.map (fun n -> Jsonx.Int n) np.Problem.common_ubs))
      );
      ("opaque_dims", Jsonx.Int np.Problem.opaque_dims);
      ("eqs", Jsonx.List (List.map eq_to_json np.Problem.eqs));
    ]

(* The self-declared client name riding on any request; the session
   uses it to key per-client attribution.  Absent or non-string means
   the default bucket. *)
let client_of j =
  match Option.bind (Jsonx.member "client" j) Jsonx.to_str with
  | Some c when String.trim c <> "" -> c
  | _ -> "anon"

let parse_request j =
  let id = Option.value (Jsonx.member "id" j) ~default:Jsonx.Null in
  let req =
    match Option.bind (Jsonx.member "op" j) Jsonx.to_str with
    | None -> fail "missing \"op\" field"
    | Some "ping" -> Ok Ping
    | Some "metrics" -> (
        match Jsonx.member "format" j with
        | None | Some (Jsonx.Str "prom") -> Ok (Metrics { format = `Prom })
        | Some (Jsonx.Str "json") -> Ok (Metrics { format = `Json })
        | Some (Jsonx.Str f) -> fail "unknown metrics format %S" f
        | Some _ -> fail "field \"format\" must be \"prom\" or \"json\"")
    | Some "shutdown" -> Ok Shutdown
    | Some "query" -> (
        let* fuel = opt_int_field j "fuel" in
        let* timeout_ms = opt_int_field j "timeout_ms" in
        match Jsonx.member "problem" j with
        | None -> fail "query needs a \"problem\" object"
        | Some pj ->
            let* problem = problem_of_json pj in
            Ok (Query { problem; fuel; timeout_ms }))
    | Some "analyze" -> (
        let* fuel = opt_int_field j "fuel" in
        let* timeout_ms = opt_int_field j "timeout_ms" in
        let* lang =
          match Option.bind (Jsonx.member "lang" j) Jsonx.to_str with
          | None | Some "f" | Some "f77" -> Ok `F77
          | Some "c" -> Ok `C
          | Some l -> fail "unknown lang %S" l
        in
        let* assume =
          match Jsonx.member "assume" j with
          | None -> Ok []
          | Some (Jsonx.Obj fields) ->
              List.fold_left
                (fun acc (k, v) ->
                  let* acc = acc in
                  match Jsonx.to_int v with
                  | Some n -> Ok ((k, n) :: acc)
                  | None -> fail "assumption %S must be an integer" k)
                (Ok []) fields
              |> Result.map List.rev
          | Some _ -> fail "\"assume\" must be an object"
        in
        match Option.bind (Jsonx.member "source" j) Jsonx.to_str with
        | None -> fail "analyze needs a \"source\" string"
        | Some s when String.length s > max_source_bytes ->
            fail "source larger than %d bytes" max_source_bytes
        | Some source -> Ok (Analyze { lang; source; assume; fuel; timeout_ms }))
    | Some op -> fail "unknown op %S" op
  in
  (id, req)

(* {2 Responses} *)

(* Every response echoes the client-chosen [id], and — when the
   session assigned one — the server-side monotonic request id [rid].
   The rid is what correlates a response with the daemon's trace spans
   and logs; refusal paths (overload, draining) have no request to
   number and omit it. *)
let response ?rid ~id fields =
  let rid_field =
    match rid with None -> [] | Some n -> [ ("rid", Jsonx.Int n) ]
  in
  Jsonx.to_string (Jsonx.Obj ((("id", id) :: rid_field) @ fields))

let ok ?rid ~id ~op fields =
  response ?rid ~id (("ok", Jsonx.Bool true) :: ("op", Jsonx.Str op) :: fields)

let error ?rid ~id ~reason ?retry_after_ms msg =
  response ?rid ~id
    ([ ("ok", Jsonx.Bool false); ("reason", Jsonx.Str reason);
       ("error", Jsonx.Str msg) ]
    @
    match retry_after_ms with
    | None -> []
    | Some ms -> [ ("retry_after_ms", Jsonx.Int ms) ])

let result_fields (r : Strategy.result) =
  [
    ("verdict", Jsonx.Str (Verdict.to_string r.Strategy.verdict));
    ("decided_by", Jsonx.Str r.Strategy.decided_by);
    ( "dirvecs",
      Jsonx.List
        (List.map (fun dv -> Jsonx.Str (Dirvec.to_string dv)) r.Strategy.dirvecs)
    );
    ( "distances",
      Jsonx.List
        (List.map
           (fun (lvl, p) ->
             Jsonx.Obj
               [
                 ("level", Jsonx.Int lvl);
                 ( "distance",
                   match Poly.to_const p with
                   | Some c -> Jsonx.Int c
                   | None -> Jsonx.Str (Poly.to_string p) );
               ])
           r.Strategy.distances) );
    ( "degraded",
      Jsonx.List
        (List.map
           (fun (s, reason) ->
             Jsonx.Obj [ ("strategy", Jsonx.Str s); ("reason", Jsonx.Str reason) ])
           r.Strategy.degraded) );
  ]
