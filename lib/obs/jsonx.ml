(* The one JSON codec: a value type, a parser, and the only printer.
   Every JSON byte the system writes — wire frames, bulk NDJSON, stats
   objects, metric snapshots, Chrome traces — goes through [write], so
   there is one string escaper and one number rule.  The repo
   deliberately carries no third-party JSON dependency; frames are
   small (bounded by the serve layer's framing before they reach the
   parser), so a plain recursive-descent parser with an explicit depth
   bound is all the robustness the daemon needs. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* {2 Printing} *)

(* Integral values print bare, everything else with nine significant
   digits: value-deterministic, and a nine-digit string re-parses to a
   float that prints back to the same nine digits. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let write_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  (* JSON has no NaN or infinity; a pathological value degrades to 0
     rather than corrupting the stream. *)
  | Float f -> Buffer.add_string b (if Float.is_finite f then number f else "0")
  | Str s -> write_string b s
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      write_fields b fields;
      Buffer.add_char b '}'

and write_fields b fields =
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      write_string b k;
      Buffer.add_char b ':';
      write b v)
    fields

let ints fields = Obj (List.map (fun (k, n) -> (k, Int n)) fields)

let to_string v =
  let b = Buffer.create 128 in
  write b v;
  Buffer.contents b

(* {2 Parsing} *)

(* Nesting bound: adversarial input like ["[[[[...."] must not blow the
   stack; 64 levels is far beyond any legitimate request. *)
let max_depth = 64

type state = { s : string; len : int; mutable pos : int }

let peek st = if st.pos < st.len then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail "expected %c at byte %d, got %c" c st.pos d
  | None -> fail "expected %c at byte %d, got end of input" c st.pos

let literal st word v =
  let n = String.length word in
  if st.pos + n <= st.len && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail "bad literal at byte %d" st.pos

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex4 st =
  if st.pos + 4 > st.len then fail "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let c = st.s.[st.pos + i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad hex digit %c in \\u escape" c
    in
    v := (!v lsl 4) lor d
  done;
  st.pos <- st.pos + 4;
  !v

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then fail "unterminated string";
    let c = st.s.[st.pos] in
    advance st;
    match c with
    | '"' -> Buffer.contents b
    | '\\' -> (
        if st.pos >= st.len then fail "unterminated escape";
        let e = st.s.[st.pos] in
        advance st;
        match e with
        | '"' | '\\' | '/' ->
            Buffer.add_char b e;
            go ()
        | 'n' ->
            Buffer.add_char b '\n';
            go ()
        | 't' ->
            Buffer.add_char b '\t';
            go ()
        | 'r' ->
            Buffer.add_char b '\r';
            go ()
        | 'b' ->
            Buffer.add_char b '\b';
            go ()
        | 'f' ->
            Buffer.add_char b '\012';
            go ()
        | 'u' ->
            add_utf8 b (hex4 st);
            go ()
        | e -> fail "bad escape \\%c" e)
    | c ->
        Buffer.add_char b c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let rec go () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+') ->
        advance st;
        go ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub st.s start (st.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "bad number %S" s
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> (
        (* Integer out of OCaml's 63-bit range: degrade to float rather
           than refuse the frame. *)
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "bad number %S" s)

let rec parse_value st depth =
  if depth > max_depth then fail "nesting deeper than %d" max_depth;
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail "expected , or ] at byte %d" st.pos
        in
        List (items [])
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields (kv :: acc)
          | Some '}' ->
              advance st;
              List.rev (kv :: acc)
          | _ -> fail "expected , or } at byte %d" st.pos
        in
        Obj (fields [])
      end
  | Some c -> fail "unexpected %c at byte %d" c st.pos

let parse s =
  let st = { s; len = String.length s; pos = 0 } in
  try
    let v = parse_value st 0 in
    skip_ws st;
    if st.pos <> st.len then Error (Printf.sprintf "trailing bytes at %d" st.pos)
    else Ok v
  with Bad m -> Error m

(* {2 Accessors} *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function List xs -> Some xs | _ -> None
