module Smap = Map.Make (String)
open Dlz_base

type t = int Smap.t (* symbol -> integer lower bound *)
type sign = Negative | Zero | Positive | Unknown

let empty = Smap.empty

let assume_ge s b env =
  Smap.update s (function None -> Some b | Some b' -> Some (max b b')) env

let assume_nonneg p env =
  let konst, rest =
    List.partition (fun (_, m) -> Monomial.is_unit m) (Poly.terms p)
  in
  let k = match konst with [ (k, _) ] -> k | _ -> 0 in
  match rest with
  | [ (c, m) ] when c > 0 -> (
      match Monomial.to_list m with
      | [ (s, 1) ] -> assume_ge s (Dlz_base.Numth.cdiv (-k) c) env
      | _ -> env)
  | _ -> env

let lower_bound s env = Smap.find_opt s env
let bindings env = Smap.bindings env

(* The exact procedure.  Rewrite p with s := lb(s) + s for every
   bounded symbol, so that every symbol in the result stands for a
   nonnegative unknown, and read the signs of its coefficients.
   Symbols with no assumed bound keep an unknown sign and poison the
   analysis. *)
let shifted env p =
  List.fold_left
    (fun q s ->
      match lower_bound s env with
      | None -> q
      | Some lb -> Poly.subst s (Poly.add (Poly.const lb) (Poly.sym s)) q)
    p (Poly.vars p)

let all_bounded env p =
  List.for_all (fun s -> lower_bound s env <> None) (Poly.vars p)

let coeff_signs p =
  List.fold_left
    (fun (has_pos, has_neg, konst) (c, m) ->
      if Monomial.is_unit m then (has_pos, has_neg, c)
      else (has_pos || c > 0, has_neg || c < 0, konst))
    (false, false, 0) (Poly.terms p)

let nonneg_by_shift env p =
  match Poly.to_const p with
  | Some c -> c >= 0
  | None ->
      all_bounded env p
      &&
      let _, has_neg, konst = coeff_signs (shifted env p) in
      (not has_neg) && konst >= 0

(* The four questions a decision asks of one polynomial. *)
type test = Nonneg | Pos | Nonpos | Neg

(* The exact procedure answers each as [p >= 0] of a rewritten
   polynomial: [p >= 1] iff [p - 1 >= 0], [p <= 0] iff [-p >= 0]. *)
let holds_exact env test p =
  nonneg_by_shift env
    (match test with
    | Nonneg -> p
    | Pos -> Poly.sub p Poly.one
    | Nonpos -> Poly.neg p
    | Neg -> Poly.sub (Poly.neg p) Poly.one)

(* The shift is a ring map, so all four read one summary of the
   shifted p: (some non-constant coefficient > 0, some < 0, the
   constant), [None] when a symbol of p has no bound. *)
let holds test = function
  | None -> false
  | Some (up, down, konst) -> (
      match test with
      | Nonneg -> (not down) && konst >= 0
      | Pos -> (not down) && konst >= 1
      | Nonpos -> (not up) && konst <= 0
      | Neg -> (not up) && konst <= -1)

exception Exact

(* The exact procedure negates and decrements: a value the fast path
   sees as [min_int] is left to it. *)
let safe x = if x = min_int then raise Exact else x

(* The summary of a linear p in one pass, without building the shifted
   polynomial: each term [c·s] adds [c] to the sign flags and
   [c·lb(s)] to the constant, summed in the exact procedure's order
   (the constant, then the symbols by name).  Raises [Exact] on a term
   of degree 2 or more, and [Exact] or [Intx.Overflow] when a value
   reaches [min_int] or overflows; the exact procedure, which may
   overflow elsewhere since it asks about [p - 1] and [-p], then
   decides.  Every coefficient is checked even past an unbounded
   symbol, because the exact procedure negates the whole of p first. *)
let linear_summary env p =
  let step m c (up, down, bounded, konst) =
    let c = safe c in
    match Monomial.to_list m with
    | [] -> (up, down, bounded, safe (Intx.add konst c))
    | [ (s, 1) ] -> (
        let up = up || c > 0 and down = down || c < 0 in
        match (bounded, lower_bound s env) with
        | true, Some lb ->
            (up, down, true, safe (Intx.add konst (safe (Intx.mul c lb))))
        | _ -> (up, down, false, konst))
    | _ -> raise Exact
  in
  match Poly.fold step p (false, false, true, 0) with
  | up, down, true, konst -> Some (up, down, konst)
  | _ -> None

(* One shift per decision: [decider env p test] answers every test of
   p from one summary, or by the exact procedure when the fast path
   declines. *)
let decider env p =
  match linear_summary env p with
  | s -> fun test -> holds test s
  | exception (Exact | Intx.Overflow _) -> fun test -> holds_exact env test p

let is_nonneg env p = decider env p Nonneg
let is_pos env p = decider env p Pos
let is_nonpos env p = decider env p Nonpos
let is_neg env p = decider env p Neg

let sign env p =
  if Poly.is_zero p then Zero
  else
    let holds = decider env p in
    if holds Pos then Positive else if holds Neg then Negative else Unknown

let lt env p q = is_pos env (Poly.sub q p)
let le env p q = is_nonneg env (Poly.sub q p)

let abs env p =
  if Poly.is_zero p then Some Poly.zero
  else
    let holds = decider env p in
    if holds Pos then Some p
    else if holds Neg then Some (Poly.neg p)
    else if holds Nonneg then Some p
    else None

let max2 env p q =
  if le env q p then Some p else if le env p q then Some q else None

let sample env ?(extra = 0) syms =
  List.map
    (fun s ->
      match lower_bound s env with
      | Some lb -> (s, lb + extra)
      | None -> (s, extra))
    syms

let pp ppf env =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (s, b) -> Format.fprintf ppf "%s >= %d" s b)
    ppf (bindings env)
