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
let contains_zero iv = mem 0 iv

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

let shift c = function
  | Empty -> Empty
  | Range (l, h) -> Range (Intx.add c l, Intx.add c h)

let equal a b =
  match (a, b) with
  | Empty, Empty -> true
  | Range (l1, h1), Range (l2, h2) -> l1 = l2 && h1 = h2
  | _ -> false

let pp ppf = function
  | Empty -> Format.pp_print_string ppf "[]"
  | Range (l, h) -> Format.fprintf ppf "[%d, %d]" l h

(* Mutable interval accumulator: the hot tests fold dozens of scaled
   boxes per equation, and building a [Range] block per fold step is
   pure garbage.  An [Acc.t] is allocated once (per domain, typically)
   and reused; all the combinators below are allocation-free. *)
module Acc = struct
  type acc = { mutable lo : int; mutable hi : int; mutable empty : bool }

  let create () = { lo = 0; hi = 0; empty = false }

  let set_point a v =
    a.lo <- v;
    a.hi <- v;
    a.empty <- false

  let add_scaled a c ub =
    (* a += c * [0, ub]  (the lhs-interval step), empty absorbing. *)
    if not a.empty then
      if c >= 0 then begin
        a.hi <- Intx.add a.hi (Intx.mul c ub)
      end
      else begin
        a.lo <- Intx.add a.lo (Intx.mul c ub)
      end

  let add_ivl a = function
    | Empty -> a.empty <- true
    | Range (l, h) ->
        if not a.empty then begin
          a.lo <- Intx.add a.lo l;
          a.hi <- Intx.add a.hi h
        end

  let contains_zero a = (not a.empty) && a.lo <= 0 && 0 <= a.hi
  let to_ivl a = if a.empty then Empty else make a.lo a.hi
end
