type align = Left | Right | Center

type t = {
  headers : string list;
  aligns : align array;
  mutable lines : string list list; (* reversed *)
}

let create ?(aligns = []) headers =
  let n = List.length headers in
  let arr = Array.make n Left in
  List.iteri (fun i a -> if i < n then arr.(i) <- a) aligns;
  { headers; aligns = arr; lines = [] }

let add_row t row =
  let n = List.length t.headers in
  let k = List.length row in
  if k > n then invalid_arg "Table.add_row: too many cells";
  let row = if k < n then row @ List.init (n - k) (fun _ -> "") else row in
  t.lines <- row :: t.lines

let utf8_length s =
  (* Count code points, not bytes: headers use characters like ≤. *)
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let pad align width s =
  let len = utf8_length s in
  if len >= width then s
  else
    let fill = width - len in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
    | Center ->
        let l = fill / 2 in
        String.make l ' ' ^ s ^ String.make (fill - l) ' '

let render t =
  let lines = List.rev t.lines in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (utf8_length c)) row
  in
  measure t.headers;
  List.iter measure lines;
  let buf = Buffer.create 256 in
  let emit_row row =
    Buffer.add_string buf "|";
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad t.aligns.(i) widths.(i) c);
        Buffer.add_string buf " |")
      row;
    Buffer.add_char buf '\n'
  in
  emit_row t.headers;
  Buffer.add_string buf "|";
  Array.iter
    (fun w ->
      Buffer.add_string buf (String.make (w + 2) '-');
      Buffer.add_char buf '|')
    widths;
  Buffer.add_char buf '\n';
  List.iter emit_row lines;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (render t)
