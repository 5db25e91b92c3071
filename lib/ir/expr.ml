open Dlz_base

type binop = Add | Sub | Mul | Div

type t =
  | Const of int
  | Var of string
  | Bin of binop * t * t
  | Neg of t
  | Call of string * t list

let const c = Const c
let var v = Var v
let ( + ) a b = Bin (Add, a, b)
let ( - ) a b = Bin (Sub, a, b)
let ( * ) a b = Bin (Mul, a, b)

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> Int.equal x y
  | Var x, Var y -> String.equal x y
  | Bin (o1, a1, b1), Bin (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | Neg x, Neg y -> equal x y
  | Call (f, xs), Call (g, ys) ->
      String.equal f g
      && List.length xs = List.length ys
      && List.for_all2 equal xs ys
  | _ -> false

module Sset = Set.Make (String)

let free_vars e =
  let rec go acc = function
    | Const _ -> acc
    | Var v -> Sset.add v acc
    | Bin (_, a, b) -> go (go acc a) b
    | Neg a -> go acc a
    | Call (_, args) -> List.fold_left go acc args
  in
  Sset.elements (go Sset.empty e)

let rec subst v e' e =
  match e with
  | Const _ -> e
  | Var w -> if String.equal w v then e' else e
  | Bin (op, a, b) -> Bin (op, subst v e' a, subst v e' b)
  | Neg a -> Neg (subst v e' a)
  | Call (f, args) -> Call (f, List.map (subst v e') args)

let rec fold_consts e =
  match e with
  | Const _ | Var _ -> e
  | Neg a -> (
      match fold_consts a with
      | Const c -> Const (Intx.neg c)
      | a' -> Neg a')
  | Call (f, args) -> Call (f, List.map fold_consts args)
  | Bin (op, a, b) -> (
      let a = fold_consts a and b = fold_consts b in
      match (op, a, b) with
      | Add, Const x, Const y -> Const (Intx.add x y)
      | Sub, Const x, Const y -> Const (Intx.sub x y)
      | Mul, Const x, Const y -> Const (Intx.mul x y)
      | Div, Const x, Const y when y <> 0 && x mod y = 0 -> Const (x / y)
      | Add, Const 0, e | Add, e, Const 0 -> e
      | Sub, e, Const 0 -> e
      | Mul, Const 1, e | Mul, e, Const 1 -> e
      | Mul, Const 0, _ | Mul, _, Const 0 -> Const 0
      | Div, e, Const 1 -> e
      | _ -> Bin (op, a, b))

let to_const e = match fold_consts e with Const c -> Some c | _ -> None

let rec eval env = function
  | Const c -> c
  | Var v -> env v
  | Neg a -> Intx.neg (eval env a)
  | Call (f, _) -> failwith ("Expr.eval: opaque call to " ^ f)
  | Bin (op, a, b) -> (
      let x = eval env a and y = eval env b in
      match op with
      | Add -> Intx.add x y
      | Sub -> Intx.sub x y
      | Mul -> Intx.mul x y
      | Div -> if y = 0 then raise Division_by_zero else x / y)

let of_poly p =
  let module Poly = Dlz_symbolic.Poly in
  let module Monomial = Dlz_symbolic.Monomial in
  let term_expr (c, m) =
    let factors =
      List.concat_map
        (fun (s, e) -> List.init e (fun _ -> Var s))
        (Monomial.to_list m)
    in
    (* [min_int] has no magnitude: that term keeps its sign. *)
    let neg = c < 0 && c <> min_int in
    let mag = if neg then -c else c in
    let base =
      match factors with
      | [] -> Const mag
      | f0 :: fs ->
          let prod = List.fold_left (fun acc f -> Bin (Mul, acc, f)) f0 fs in
          if mag = 1 then prod else Bin (Mul, Const mag, prod)
    in
    (neg, base)
  in
  match Poly.terms p with
  | [] -> Const 0
  | t0 :: ts ->
      let neg0, e0 = term_expr t0 in
      let init = if neg0 then Neg e0 else e0 in
      List.fold_left
        (fun acc t ->
          let neg, e = term_expr t in
          if neg then Bin (Sub, acc, e) else Bin (Add, acc, e))
        init ts

(* Precedence: Add/Sub = 1, Mul/Div = 2, Neg = 3, atoms = 4. *)
let rec pp_prec prec ppf e =
  let open Format in
  match e with
  | Const c -> fprintf ppf "%d" c
  | Var v -> pp_print_string ppf v
  | Neg a ->
      if prec > 3 then fprintf ppf "(-%a)" (pp_prec 3) a
      else fprintf ppf "-%a" (pp_prec 3) a
  | Call (f, args) ->
      fprintf ppf "%s(%a)" f
        (pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ",") (pp_prec 0))
        args
  | Bin (op, a, b) ->
      let sym, p = match op with
        | Add -> ("+", 1)
        | Sub -> ("-", 1)
        | Mul -> ("*", 2)
        | Div -> ("/", 2)
      in
      let body ppf () =
        (* Right operand of - and / needs the next precedence level. *)
        fprintf ppf "%a%s%a" (pp_prec p) a sym (pp_prec (Stdlib.( + ) p 1)) b
      in
      if prec > p then fprintf ppf "(%a)" body () else body ppf ()

let pp ppf e = pp_prec 0 ppf e
let to_string e = Format.asprintf "%a" pp e
