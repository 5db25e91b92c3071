(** Zigzag LEB128: the variable-length int codec of the memo cache's
    canonical keys ({!Dlz_deptest.Problem.Keybuf}) and of the snapshot
    payload ({!Dlz_engine.Persist}).

    An int is first zigzag-mapped to an unsigned 63-bit code (0, -1, 1,
    -2, 2, … become 0, 1, 2, 3, 4, …), then written seven bits per
    byte, low bits first, with the high bit set on every byte but the
    last.  Ints in [-64, 63] take one byte, [-8192, 8191] two, and no
    int more than {!max_bytes}.  The encoding is injective and
    self-delimiting, so a concatenation of encodings is injective
    too. *)

val max_bytes : int
(** 9: seven bits a byte cover the 63 bits of a native int. *)

val zigzag : int -> int
(** The code of an int, read as an unsigned 63-bit value. *)

val unzigzag : int -> int
(** The inverse of {!zigzag}; both are bijections on 63-bit ints. *)

val write : Bytes.t -> int -> int -> int
(** [write b off v] writes [v] at [off] and returns the offset just
    past it.  [b] must have {!max_bytes} bytes of room at [off] (not
    checked).  Allocates nothing. *)

val add : Buffer.t -> int -> unit
(** [add b v] appends [v]'s encoding to [b]. *)

exception Malformed of string
(** Raised by {!read}: ["truncated varint"] or ["over-long varint"]. *)

val read : string -> limit:int -> int -> int * int
(** [read s ~limit pos] decodes the int starting at [pos] and returns
    it with the offset just past it.  Raises {!Malformed} when the
    encoding runs to [limit] without a last byte, or has a continuation
    bit on its {!max_bytes}-th byte. *)
