(** Length-framed NDJSON wire format.

    One frame is [<decimal byte length>\n<payload>\n].  The leading
    length lets the reader bound allocation before reading the payload
    and makes torn input detectable; the trailing newline keeps the
    stream greppable as NDJSON when captured.

    A connection reads through one {!reader} and writes through one
    {!writer}, each a fixed buffer of {!buffer_size} bytes, so a frame
    costs one system call or less in each direction.

    Both directions consult the {!Dlz_engine.Chaos} io-strike points
    (["frame.read"] / ["frame.write"], keyed by payload) so the serve
    test battery can deterministically tear frames, drop connections
    mid-stream, and dribble writes. *)

type error =
  | Eof  (** clean close between frames *)
  | Timeout  (** the peer stalled past the socket receive timeout *)
  | Too_large of int  (** declared length above the frame bound *)
  | Malformed of string  (** framing violated; the stream cannot resync *)
  | Io of string  (** the connection died mid-frame *)

val error_to_string : error -> string

val default_max_bytes : int
(** 4 MiB. *)

val buffer_size : int
(** 64 KiB: the most one [Unix.read] or [Unix.write] moves. *)

val encode : string -> string
(** The raw bytes of one frame carrying [payload]. *)

(** {2 Reading} *)

type reader

val reader : Unix.file_descr -> reader
(** The read side of one connection.  Bytes past the current frame
    stay in its buffer for the next {!read}. *)

val read : ?max_bytes:int -> reader -> (string, error) result
(** Blocking read of one frame's payload.  A length above [max_bytes]
    is [Too_large] before any payload byte is read.  A close is [Eof]
    between frames and [Io] inside one; socket receive timeouts
    ([SO_RCVTIMEO]) surface as [Timeout].  A payload larger than the
    buffer is read straight into its own bytes.  Never raises. *)

(** {2 Writing} *)

type writer

val writer : Unix.file_descr -> writer
(** The write side of one connection. *)

val add : writer -> string -> (unit, error) result
(** Queue one frame.  The queue is written first when the frame would
    not fit behind it, so frames leave in order.  A chaos strike
    writes the queue, then tears, drops or dribbles this frame.  After
    an [Error] the writer holds nothing and the connection is dead.
    Never raises. *)

val flush : writer -> (unit, error) result
(** Write every queued frame.  [EPIPE]/reset surface as [Io];
    [SIGPIPE] must be ignored process-wide (the server does this).
    Never raises. *)

val write : writer -> string -> (unit, error) result
(** [add] then [flush]: one frame, written now. *)
