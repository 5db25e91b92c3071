type t = Empty | Range of int * int

let make lo hi = if lo > hi then Empty else Range (lo, hi)
let empty = Empty
let point v = Range (v, v)
let zero = point 0
let is_empty = function Empty -> true | Range _ -> false

let lo = function
  | Empty -> invalid_arg "Ivl.lo: empty interval"
  | Range (l, _) -> l

let hi = function
  | Empty -> invalid_arg "Ivl.hi: empty interval"
  | Range (_, h) -> h

let mem x = function Empty -> false | Range (l, h) -> l <= x && x <= h

let add a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Range (l1, h1), Range (l2, h2) -> Range (Intx.add l1 l2, Intx.add h1 h2)

let neg = function
  | Empty -> Empty
  | Range (l, h) -> Range (Intx.neg h, Intx.neg l)

let scale c = function
  | Empty -> Empty
  | Range (l, h) ->
      if c >= 0 then Range (Intx.mul c l, Intx.mul c h)
      else Range (Intx.mul c h, Intx.mul c l)

let join a b =
  match (a, b) with
  | Empty, x | x, Empty -> x
  | Range (l1, h1), Range (l2, h2) -> Range (min l1 l2, max h1 h2)

let inter a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Range (l1, h1), Range (l2, h2) -> make (max l1 l2) (min h1 h2)

let width = function Empty -> -1 | Range (l, h) -> Intx.sub h l

let max_abs = function
  | Empty -> invalid_arg "Ivl.max_abs: empty interval"
  | Range (l, h) -> max (Intx.abs l) (Intx.abs h)

let equal a b =
  match (a, b) with
  | Empty, Empty -> true
  | Range (l1, h1), Range (l2, h2) -> l1 = l2 && h1 = h2
  | _ -> false

let pp ppf = function
  | Empty -> Format.pp_print_string ppf "[]"
  | Range (l, h) -> Format.fprintf ppf "[%d, %d]" l h
