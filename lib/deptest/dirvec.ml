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

let of_bits = function
  | 0b100 -> Some Lt
  | 0b010 -> Some Eq
  | 0b001 -> Some Gt
  | 0b110 -> Some Le
  | 0b011 -> Some Ge
  | 0b101 -> Some Ne
  | 0b111 -> Some Star
  | _ -> None

let meet_dir a b = of_bits (bits a land bits b)
let join_dir a b = Option.get (of_bits (bits a lor bits b))
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

let join a b =
  if Array.length a <> Array.length b then
    invalid_arg "Dirvec.join: length mismatch";
  Array.map2 join_dir a b

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

let meet_sets dvs nvs =
  List.concat_map (fun dv -> List.filter_map (fun nv -> meet dv nv) nvs) dvs
  |> List.sort_uniq compare

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

let pp ppf v = Format.pp_print_string ppf (to_string v)
