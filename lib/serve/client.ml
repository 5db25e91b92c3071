(* A small blocking client — what the tests, the chaos battery, and
   the load generator speak through.  Also the reference
   implementation for anyone scripting against the daemon. *)

type t = { fd : Unix.file_descr; reader : Frame.reader; writer : Frame.writer }

let connect ?(timeout_ms = 10_000) addr =
  match Addr.connect addr with
  | Error _ as e -> e
  | Ok fd ->
      (try
         let to_s = float_of_int timeout_ms /. 1000. in
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO to_s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO to_s
       with Unix.Unix_error _ -> ());
      Ok { fd; reader = Frame.reader fd; writer = Frame.writer fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t json =
  match Frame.write t.writer (Jsonx.to_string json) with
  | Ok () -> Ok ()
  | Error e -> Error (Frame.error_to_string e)

(* Raw unframed bytes, bypassing [Frame] (and its chaos strikes): how
   the tests play a misbehaving client — garbage length lines, torn
   frames, half-written payloads. *)
let send_raw t s =
  let b = Bytes.unsafe_of_string s in
  let rec go off len =
    if len = 0 then Ok ()
    else
      match Unix.write t.fd b off len with
      | k -> go (off + k) (len - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0 (String.length s)

let recv ?max_bytes t =
  match Frame.read ?max_bytes t.reader with
  | Error e -> Error (Frame.error_to_string e)
  | Ok payload -> (
      match Jsonx.parse payload with
      | Ok j -> Ok j
      | Error m -> Error ("unparseable response: " ^ m))

let request t json =
  match send t json with Error _ as e -> e | Ok () -> recv t

(* Collect a streamed response: frames up to and including the first
   terminal one (an [ok:false] error, or an [ok:true] frame whose op
   is not ["pair"] — i.e. the summary).  [limit] bounds a runaway
   stream. *)
let read_stream ?(limit = 100_000) t =
  let rec go acc n =
    if n >= limit then Error "response stream exceeded limit"
    else
      match recv t with
      | Error _ as e -> e
      | Ok j -> (
          let acc = j :: acc in
          match (Jsonx.member "ok" j, Jsonx.member "op" j) with
          | Some (Jsonx.Bool false), _ -> Ok (List.rev acc)
          | _, Some (Jsonx.Str "pair") -> go acc (n + 1)
          | _, _ -> Ok (List.rev acc))
  in
  go [] 0
