type dir = Lt | Eq | Gt | Le | Ge | Ne | Star
type t = dir array

let all_star n = Array.make n Star

(* Encode each relation as the subset of {<, =, >} it admits. *)
let bits = function
  | Lt -> 0b100
  | Eq -> 0b010
  | Gt -> 0b001
  | Le -> 0b110
  | Ge -> 0b011
  | Ne -> 0b101
  | Star -> 0b111

(* [by_bits.(bits d)] is [d]; 0 is no relation. *)
let by_bits = [| Star; Gt; Eq; Ge; Lt; Ne; Le; Star |]
let of_bits b = if b = 0 then None else Some by_bits.(b)

let meet_dir a b = of_bits (bits a land bits b)
let join_dir a b = by_bits.(bits a lor bits b)
let leq_dir a b = bits a land bits b = bits a

let meet a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let result = Array.make n Star in
  let ok = ref true in
  for i = 0 to n - 1 do
    let da = if i < la then a.(i) else Star in
    let db = if i < lb then b.(i) else Star in
    match meet_dir da db with
    | Some d -> result.(i) <- d
    | None -> ok := false
  done;
  if !ok then Some result else None

let refinements = function
  | Star -> [ Lt; Eq; Gt ]
  | Le -> [ Lt; Eq ]
  | Ge -> [ Eq; Gt ]
  | Ne -> [ Lt; Gt ]
  | (Lt | Eq | Gt) as d -> [ d ]

let is_basic = function Lt | Eq | Gt -> true | _ -> false

let admits d delta =
  let b = bits d in
  if delta > 0 then b land 0b100 <> 0
  else if delta = 0 then b land 0b010 <> 0
  else b land 0b001 <> 0

let of_delta delta = if delta > 0 then Lt else if delta = 0 then Eq else Gt

let plausible v =
  (* Reject vectors that are definitely lexicographically negative:
     a prefix admitting only '=' followed by a component admitting only '>'. *)
  let n = Array.length v in
  let rec go i =
    if i >= n then true
    else
      match v.(i) with
      | Eq -> go (i + 1)
      | Gt -> false
      | _ -> true
  in
  go 0

let rev_dir = function
  | Lt -> Gt
  | Gt -> Lt
  | Le -> Ge
  | Ge -> Le
  | (Eq | Ne | Star) as d -> d

let reverse v = Array.map rev_dir v
let equal a b = a = b
let compare = Stdlib.compare

let dir_to_string = function
  | Lt -> "<"
  | Eq -> "="
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | Ne -> "!="
  | Star -> "*"

let to_string v =
  "(" ^ String.concat ", " (Array.to_list (Array.map dir_to_string v)) ^ ")"

(* --- packed words --------------------------------------------------------- *)

(* Both packed forms below lay a vector out as [stride n] words; word
   [j] holds levels [21j + 1] to [21j + 21], 3 bits each, the first of
   them in the highest field.  Unused low fields are 0. *)
let per_word = 21
let stride n = if n <= per_word then 1 else (n + per_word - 1) / per_word
let shift i = 3 * (per_word - 1 - i)

(* --- lattice masks -------------------------------------------------------- *)

module Mask = struct
  type vec = t

  (* The field of level [l] (1-based). *)
  let field w l =
    (w.((l - 1) / per_word) lsr shift ((l - 1) mod per_word)) land 7

  let get w l = by_bits.(field w l)

  let pack (v : vec) =
    let w = Array.make (stride (Array.length v)) 0 in
    for l = 0 to Array.length v - 1 do
      let j = l / per_word in
      w.(j) <- w.(j) lor (bits v.(l) lsl shift (l mod per_word))
    done;
    w

  let unpack n w = Array.init n (fun l -> get w (l + 1))

  let join a b =
    let w = Array.copy a in
    for j = 0 to Array.length w - 1 do
      w.(j) <- w.(j) lor b.(j)
    done;
    w

  (* The functions below are closed, so their loops allocate
     nothing. *)
  let rec leq_from a b j =
    j < 0 || (a.(j) land b.(j) = a.(j) && leq_from a b (j - 1))

  let leq a b = leq_from a b (Array.length a - 1)
  let rec equal_from a b j = j < 0 || (a.(j) = b.(j) && equal_from a b (j - 1))

  let equal a b =
    Array.length a = Array.length b && equal_from a b (Array.length a - 1)

  let popcount = [| 0; 1; 1; 2; 1; 2; 2; 3 |]

  let rec basics_from ~cap n w l p =
    if p >= cap then cap
    else if l > n then p
    else basics_from ~cap n w (l + 1) (p * popcount.(field w l))

  let basics ~cap n w = basics_from ~cap n w 1 1

  (* Levels [l] to [n] of the basic vectors below [w], written into
     [b] after the levels before [l]. *)
  let rec basics_at f n w b l =
    if l > n then f b
    else
      let j = (l - 1) / per_word and s = shift ((l - 1) mod per_word) in
      each_bit f n w b l (field w l) j s (b.(j) land lnot (7 lsl s)) 0b100

  (* [<], then [=], then [>] where the level admits it. *)
  and each_bit f n w b l m j s keep bit =
    if bit > 0 then begin
      if m land bit <> 0 then begin
        b.(j) <- keep lor (bit lsl s);
        basics_at f n w b (l + 1)
      end;
      each_bit f n w b l m j s keep (bit lsr 1)
    end

  (* A basic vector is its one basic vector. *)
  let iter_basics f n w =
    if basics ~cap:2 n w = 1 then f w
    else basics_at f n w (Array.make (Array.length w) 0) 1

  let rec lead_from n w l =
    if l > n then 0 else if field w l = 0b010 then lead_from n w (l + 1) else l

  let lead n w = lead_from n w 1

  (* Every field's [>] bit (one octal digit a field); shifted left
     once, its [=] bit, twice its [<] bit. *)
  let gts = 0o111_111_111_111_111_111_111

  let reverse x =
    ((x lsr 2) land gts) lor (x land (gts lsl 1)) lor ((x land gts) lsl 2)

  (* A basic level holds 4, 2 or 1 for [<], [=] or [>]: {!compare}
     order is the ints' unsigned order reversed.  [lnot] reverses it,
     and flipping the sign bit back makes it [Int.compare]'s. *)
  let rank x = x lxor max_int
end

(* --- packed sets ---------------------------------------------------------- *)

module Set = struct
  type vec = t

  (* A level's code is its [dir]'s constructor index, so comparing the
     words as unsigned numbers orders vectors as [compare] does; bit 62
     (the top field's high bit) is the sign bit, and flipping it makes
     [Int.compare] that unsigned order. *)
  type t = { n : int; w : int array }

  let sign = min_int
  let dirs = [| Lt; Eq; Gt; Le; Ge; Ne; Star |]

  let code = function
    | Lt -> 0
    | Eq -> 1
    | Gt -> 2
    | Le -> 3
    | Ge -> 4
    | Ne -> 5
    | Star -> 6

  (* [table.(8a + b)] is the code of the meet of codes [a] and [b], or
     7 when it is empty (7 is no direction). *)
  let table =
    Array.init 64 (fun i ->
        if i lsr 3 = 7 || i land 7 = 7 then 7
        else
          match meet_dir dirs.(i lsr 3) dirs.(i land 7) with
          | Some d -> code d
          | None -> 7)

  (* The word of [m] [*] fields. *)
  let stars =
    Array.init (per_word + 1) (fun m ->
        let r = ref 0 in
        for i = 0 to m - 1 do
          r := !r lor (6 lsl shift i)
        done;
        !r lxor sign)

  let fields n j = min per_word (n - (j * per_word))
  let cardinal s = Array.length s.w / stride s.n
  let is_empty s = Array.length s.w = 0
  let empty n = { n; w = [||] }
  let all_star n =
    { n; w = Array.init (stride n) (fun j -> stars.(fields n j)) }

  (* The helpers below are closed functions, so the loops that call
     them allocate nothing. *)
  let rec stars_from s k j =
    j = k || (s.w.(j) = stars.(fields s.n j) && stars_from s k (j + 1))

  let is_top s =
    let k = stride s.n in
    Array.length s.w = k && stars_from s k 0

  (* The meet of unflipped words [a] and [b] from field [i] to [m - 1],
     [r] holding the fields before [i]; -1 (every field 7, which no
     vector is) when some field's meet is empty. *)
  let rec meet_fields a b m i r =
    if i = m then r lxor sign
    else
      let s = shift i in
      let i8 = (((a lsr s) land 7) lsl 3) lor ((b lsr s) land 7) in
      let c = Array.unsafe_get table i8 in
      if c = 7 then -1 else meet_fields a b m (i + 1) (r lor (c lsl s))

  let meet_word m a b = meet_fields (a lxor sign) (b lxor sign) m 0 0

  (* --- building: sorted, deduplicated insertion --- *)

  type builder = {
    bn : int;
    k : int;  (** [stride bn] *)
    mutable buf : int array;  (** slot [x] is words [x*k] to [x*k + k - 1] *)
    mutable len : int;  (** distinct vectors, sorted, in slots [0, len) *)
  }

  let builder n =
    let k = stride n in
    { bn = n; k; buf = Array.make (8 * k) 0; len = 0 }

  let count b = b.len

  (* Room for the pending slot [len] and a spare one after it. *)
  let reserve b =
    let need = (b.len + 2) * b.k in
    if need > Array.length b.buf then begin
      let buf = Array.make (max need (2 * Array.length b.buf)) 0 in
      Array.blit b.buf 0 buf 0 (b.len * b.k);
      b.buf <- buf
    end

  let rec compare_words buf k x y j =
    if j = k then 0
    else
      let c = Int.compare buf.((x * k) + j) buf.((y * k) + j) in
      if c <> 0 then c else compare_words buf k x y (j + 1)

  let compare_slots buf k x y = compare_words buf k x y 0

  (* The first slot in [lo, hi) not below slot [len]. *)
  let rec first buf k len lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_slots buf k mid len < 0 then first buf k len (mid + 1) hi
      else first buf k len lo mid

  (* The vector written in slot [len] joins the sorted, distinct slots
     before it.  Vectors that arrive in order are appended after one
     comparison. *)
  let push b =
    let len = b.len and k = b.k and buf = b.buf in
    let c = if len = 0 then -1 else compare_slots buf k (len - 1) len in
    if c < 0 then b.len <- len + 1
    else if c > 0 then begin
      let p = first buf k len 0 (len - 1) in
      if compare_slots buf k p len <> 0 then begin
        Array.blit buf (len * k) buf ((len + 1) * k) k;
        Array.blit buf (p * k) buf ((p + 1) * k) ((len - p) * k);
        Array.blit buf ((len + 1) * k) buf (p * k) k;
        b.len <- len + 1
      end
    end

  let add b (v : vec) =
    if Array.length v <> b.bn then invalid_arg "Dirvec.Set.add: length";
    reserve b;
    let base = b.len * b.k in
    for j = 0 to b.k - 1 do
      let r = ref 0 in
      for i = 0 to fields b.bn j - 1 do
        r := !r lor (code v.((j * per_word) + i) lsl shift i)
      done;
      b.buf.(base + j) <- !r lxor sign
    done;
    push b

  let add_copies b ~from ~upto ~level d =
    let j = (level - 1) / per_word and s = shift ((level - 1) mod per_word) in
    for x = from to upto - 1 do
      reserve b;
      let base = b.len * b.k in
      Array.blit b.buf (x * b.k) b.buf base b.k;
      let w = b.buf.(base + j) lxor sign land lnot (7 lsl s) in
      b.buf.(base + j) <- (w lor (code d lsl s)) lxor sign;
      push b
    done

  let finish b = { n = b.bn; w = Array.sub b.buf 0 (b.len * b.k) }

  let singleton v =
    let b = builder (Array.length v) in
    add b v;
    finish b

  let meet x y =
    if x.n <> y.n then invalid_arg "Dirvec.Set.meet: levels";
    if is_top x then y
    else if is_top y then x
    else
      let n = x.n and k = stride x.n in
      let b = builder n in
      for i = 0 to cardinal x - 1 do
        for l = 0 to cardinal y - 1 do
          reserve b;
          let base = b.len * k and j = ref 0 in
          while !j < k do
            let w =
              meet_word (fields n !j) x.w.((i * k) + !j) y.w.((l * k) + !j)
            in
            if w = -1 then j := k + 1
            else begin
              b.buf.(base + !j) <- w;
              incr j
            end
          done;
          if !j = k then push b
        done
      done;
      finish b

  let equal x y = x.n = y.n && x.w = y.w

  let to_list s =
    let k = stride s.n in
    let vec x =
      Array.init s.n (fun l ->
          let w = s.w.((x * k) + (l / per_word)) lxor sign in
          dirs.((w lsr shift (l mod per_word)) land 7))
    in
    let rec go x acc = if x < 0 then acc else go (x - 1) (vec x :: acc) in
    go (cardinal s - 1) []
end
