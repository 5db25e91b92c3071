module Chaos = Dlz_engine.Chaos

(* Wire framing: `<decimal byte length>\n<payload bytes>\n`.  The
   explicit length makes torn input detectable (NDJSON alone cannot
   distinguish "half a line" from "a short line") and lets the reader
   bound allocation before touching the payload. *)

type error =
  | Eof  (** clean close between frames *)
  | Timeout  (** the peer stalled past the socket receive timeout *)
  | Too_large of int  (** declared length above the frame bound *)
  | Malformed of string  (** framing violated; the stream cannot resync *)
  | Io of string  (** the connection died mid-frame *)

let error_to_string = function
  | Eof -> "eof"
  | Timeout -> "timeout"
  | Too_large n -> Printf.sprintf "frame of %d bytes exceeds bound" n
  | Malformed m -> "malformed frame: " ^ m
  | Io m -> "io: " ^ m

exception Fail of error

let default_max_bytes = 4 * 1024 * 1024

(* The size of a connection's read buffer and of its write buffer: the
   most one [Unix.read] or [Unix.write] moves per system call. *)
let buffer_size = 65536

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* The length line of an [n]-byte payload, written at [off] of [b];
   returns the offset after its newline. *)
let put_length_line n b off =
  let d = digits n in
  let rec go n i =
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (n mod 10)));
    if n >= 10 then go (n / 10) (i - 1)
  in
  go n (off + d - 1);
  Bytes.set b (off + d) '\n';
  off + d + 1

let frame_length n = digits n + n + 2

let encode payload =
  let n = String.length payload in
  let b = Bytes.create (frame_length n) in
  let off = put_length_line n b 0 in
  Bytes.blit_string payload 0 b off n;
  Bytes.set b (off + n) '\n';
  Bytes.unsafe_to_string b

let strike point payload =
  match Chaos.current () with
  | None -> None
  | Some c -> Chaos.io_strike c ~point ~key:payload

let io_error e = Fail (Io (Unix.error_message e))

(* {2 Reading} *)

type reader = {
  rfd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable pos : int;  (* next unread byte *)
  mutable lim : int;  (* end of the bytes read so far *)
}

let reader fd = { rfd = fd; rbuf = Bytes.create buffer_size; pos = 0; lim = 0 }

let rec read_some fd b off len =
  match Unix.read fd b off len with
  | k -> k
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_some fd b off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise (Fail Timeout)
  | exception Unix.Unix_error (e, _, _) -> raise (io_error e)

let eof_inside = Fail (Io "eof inside frame")

(* One read(2) appended to the unread bytes, which move to the front of
   the buffer first.  A close is [Eof] only between frames. *)
let refill r ~inside =
  let unread = r.lim - r.pos in
  if r.pos > 0 then Bytes.blit r.rbuf r.pos r.rbuf 0 unread;
  r.pos <- 0;
  r.lim <- unread;
  match read_some r.rfd r.rbuf unread (buffer_size - unread) with
  | 0 -> raise (if inside then eof_inside else Fail Eof)
  | k -> r.lim <- unread + k

(* Length line: bare digits then '\n'; 19 digits already exceeds any
   plausible bound, so a longer run is garbage, not a frame.  A value
   past [max_int] saturates, to be refused as too large. *)
let rec length_line r acc digits =
  if r.pos = r.lim then refill r ~inside:(digits > 0);
  let c = Bytes.unsafe_get r.rbuf r.pos in
  r.pos <- r.pos + 1;
  match c with
  | '0' .. '9' ->
      if digits >= 19 then raise (Fail (Malformed "length line too long"));
      let d = Char.code c - Char.code '0' in
      let acc = if acc > (max_int - d) / 10 then max_int else (acc * 10) + d in
      length_line r acc (digits + 1)
  | '\n' ->
      if digits = 0 then raise (Fail (Malformed "empty length line"));
      acc
  | c -> raise (Fail (Malformed (Printf.sprintf "byte %C in length line" c)))

let terminator r =
  if r.pos = r.lim then refill r ~inside:true;
  if Bytes.get r.rbuf r.pos <> '\n' then
    raise (Fail (Malformed "missing frame terminator"));
  r.pos <- r.pos + 1

(* A payload that fits the buffer is gathered there with its
   terminator; a larger one is read straight into its own bytes. *)
let payload r n =
  if n < buffer_size then begin
    while r.lim - r.pos <= n do
      refill r ~inside:true
    done;
    let p = Bytes.sub_string r.rbuf r.pos n in
    r.pos <- r.pos + n;
    terminator r;
    p
  end
  else begin
    let b = Bytes.create n in
    let have = r.lim - r.pos in
    Bytes.blit r.rbuf r.pos b 0 have;
    r.pos <- r.lim;
    let rec go off =
      if off < n then
        match read_some r.rfd b off (n - off) with
        | 0 -> raise eof_inside
        | k -> go (off + k)
    in
    go have;
    terminator r;
    Bytes.unsafe_to_string b
  end

let read ?(max_bytes = default_max_bytes) r =
  try
    let n = length_line r 0 0 in
    if n > max_bytes then raise (Fail (Too_large n));
    let payload = payload r n in
    match strike "frame.read" payload with
    | None -> Ok payload
    | Some Chaos.Torn_frame -> Error (Malformed "chaos:torn-frame")
    | Some Chaos.Disconnect -> Error (Io "chaos:disconnect")
    | Some Chaos.Slow_write ->
        (* A slow peer, not a broken one: stall briefly, deliver. *)
        Unix.sleepf 0.002;
        Ok payload
  with Fail e -> Error e

(* {2 Writing} *)

type writer = {
  wfd : Unix.file_descr;
  wbuf : Bytes.t;
  mutable len : int;  (* bytes queued at the front of [wbuf] *)
}

let writer fd = { wfd = fd; wbuf = Bytes.create buffer_size; len = 0 }

let write_part fd b off len =
  let rec go off len =
    if len > 0 then
      match Unix.write fd b off len with
      | k -> go (off + k) (len - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          raise (Fail Timeout)
      | exception Unix.Unix_error (e, _, _) -> raise (io_error e)
  in
  go off len

let send_queued w =
  let n = w.len in
  w.len <- 0;
  write_part w.wfd w.wbuf 0 n

let write_frame w payload =
  let frame = Bytes.unsafe_of_string (encode payload) in
  write_part w.wfd frame 0 (Bytes.length frame)

(* Queue one frame, writing the queue first when the frame would not
   fit behind it.  A frame larger than the whole buffer is written on
   its own. *)
let append w payload =
  let n = String.length payload in
  let total = frame_length n in
  if w.len + total > buffer_size then send_queued w;
  if total > buffer_size then write_frame w payload
  else begin
    let off = put_length_line n w.wbuf w.len in
    Bytes.blit_string payload 0 w.wbuf off n;
    Bytes.set w.wbuf (off + n) '\n';
    w.len <- off + n + 1
  end

(* A failed writer holds nothing: the connection is dead, and a later
   [flush] has nothing left to send after a torn frame. *)
let guard w f =
  try
    f ();
    Ok ()
  with Fail e ->
    w.len <- 0;
    Error e

let add w payload =
  guard w @@ fun () ->
  match strike "frame.write" payload with
  | None -> append w payload
  | Some fault -> (
      (* The frames before this one go out first, whole. *)
      send_queued w;
      let frame = Bytes.unsafe_of_string (encode payload) in
      let len = Bytes.length frame in
      match fault with
      | Chaos.Torn_frame ->
          (* Half a frame on the wire, then give up: the peer must
             detect the tear from the framing; the writer treats the
             connection as dead. *)
          write_part w.wfd frame 0 (len / 2);
          raise (Fail (Io "chaos:torn-frame"))
      | Chaos.Disconnect -> raise (Fail (Io "chaos:disconnect"))
      | Chaos.Slow_write ->
          (* Dribble the frame out in small stalled pieces — a
             cooperating slow-loris.  The stalled prefix is capped so
             an injected stall stays bounded. *)
          let piece = 16 in
          let slow_len = min len (32 * piece) in
          let off = ref 0 in
          while !off < slow_len do
            let k = min piece (slow_len - !off) in
            write_part w.wfd frame !off k;
            Unix.sleepf 0.001;
            off := !off + k
          done;
          write_part w.wfd frame !off (len - !off))

let flush w = guard w (fun () -> send_queued w)

let write w payload = Result.bind (add w payload) (fun () -> flush w)
