let max_bytes = 9

(* [v asr 62] is 0 or -1: the sign spread over every bit. *)
let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* [lsr] reads the code as unsigned, so the loop ends after at most
   nine bytes even for codes with bit 62 set. *)
let rec write_code b off u =
  if u lsr 7 = 0 then begin
    Bytes.unsafe_set b off (Char.unsafe_chr u);
    off + 1
  end
  else begin
    Bytes.unsafe_set b off (Char.unsafe_chr (u land 0x7f lor 0x80));
    write_code b (off + 1) (u lsr 7)
  end

let write b off v = write_code b off (zigzag v)

let add b v =
  let tmp = Bytes.create max_bytes in
  Buffer.add_subbytes b tmp 0 (write tmp 0 v)

exception Malformed of string

let rec read_code s limit pos shift acc =
  if pos >= limit then raise (Malformed "truncated varint")
  else
    let c = Char.code (String.unsafe_get s pos) in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then (unzigzag acc, pos + 1)
    else if shift = 7 * (max_bytes - 1) then
      raise (Malformed "over-long varint")
    else read_code s limit (pos + 1) (shift + 7) acc

let read s ~limit pos =
  read_code s (min limit (String.length s)) pos 0 0
