module Mmap = Map.Make (Monomial)
open Dlz_base

type t = int Mmap.t (* monomial -> nonzero coefficient *)

let zero = Mmap.empty

let monomial c m = if c = 0 then zero else Mmap.singleton m c
let const c = monomial c Monomial.unit
let one = const 1
let sym s = monomial 1 (Monomial.of_sym s)

let add a b =
  Mmap.union
    (fun _ c1 c2 ->
      let c = Intx.add c1 c2 in
      if c = 0 then None else Some c)
    a b

let neg a = Mmap.map Intx.neg a
let sub a b = add a (neg b)

let scale k a =
  if k = 0 then zero else Mmap.map (fun c -> Intx.mul k c) a

let mul a b =
  Mmap.fold
    (fun ma ca acc ->
      Mmap.fold
        (fun mb cb acc ->
          add acc (monomial (Intx.mul ca cb) (Monomial.mul ma mb)))
        b acc)
    a zero

let rec pow p e =
  if e < 0 then invalid_arg "Poly.pow: negative exponent"
  else if e = 0 then one
  else mul p (pow p (e - 1))

let sum = List.fold_left add zero
let equal a b = Mmap.equal Int.equal a b
let compare a b = Mmap.compare Int.compare a b
let is_zero = Mmap.is_empty

let to_const p =
  if is_zero p then Some 0
  else
    match Mmap.bindings p with
    | [ (m, c) ] when Monomial.is_unit m -> Some c
    | _ -> None

(* Allocation-free variant of [to_const] for the integer projection
   every problem gets when it is built: one walk of the map, and a
   non-unit monomial ends it.  Keyed lookups ([Mmap.mem]/[find])
   compare monomials via [Smap.compare], whose tree enumerators cons
   on every probe, so we walk the structure directly instead. *)
let const_value p =
  Mmap.fold
    (fun m c _ -> if Monomial.is_unit m then c else raise_notrace Not_found)
    p 0

let terms p =
  List.rev_map (fun (m, c) -> (c, m)) (Mmap.bindings p)

let fold f p init = Mmap.fold f p init

let degree p =
  Mmap.fold (fun m _ acc -> max acc (Monomial.degree m)) p (-1)

module Sset = Set.Make (String)

let vars p =
  Mmap.fold
    (fun m _ acc -> List.fold_left (fun s v -> Sset.add v s) acc (Monomial.vars m))
    p Sset.empty
  |> Sset.elements

let eval env p =
  Mmap.fold (fun m c acc -> Intx.add acc (Intx.mul c (Monomial.eval env m))) p 0

let subst s q p =
  Mmap.fold
    (fun m c acc ->
      let rest, e =
        List.fold_left
          (fun (rest, e) (v, k) ->
            if String.equal v s then (rest, k) else ((v, k) :: rest, e))
          ([], 0) (Monomial.to_list m)
      in
      let base = monomial c (Monomial.of_list rest) in
      add acc (mul base (pow q e)))
    p zero

let content p = Mmap.fold (fun _ c acc -> Numth.gcd c acc) p 0

let monomial_content p =
  match Mmap.bindings p with
  | [] -> Monomial.unit
  | (m0, _) :: rest ->
      List.fold_left (fun acc (m, _) -> Monomial.gcd acc m) m0 rest

let gcd_simple p q =
  if is_zero p && is_zero q then zero
  else
    let c = Numth.gcd (content p) (content q) in
    let m =
      if is_zero p then monomial_content q
      else if is_zero q then monomial_content p
      else Monomial.gcd (monomial_content p) (monomial_content q)
    in
    monomial c m

let divmod_by_term p g =
  match Mmap.bindings g with
  | [ (gm, gc) ] ->
      let q, r =
        Mmap.fold
          (fun m c (q, r) ->
            if Monomial.divides gm m && Numth.divides gc c then
              (add q (monomial (c / gc) (Monomial.div_exn m gm)), r)
            else (q, add r (monomial c m)))
          p (zero, zero)
      in
      Some (q, r)
  | _ -> None

let leading_sign p =
  match Mmap.max_binding_opt p with
  | None -> 0
  | Some (_, c) -> Stdlib.compare c 0

let pp ppf p =
  if is_zero p then Format.pp_print_string ppf "0"
  else
    let first = ref true in
    List.iter
      (fun (c, m) ->
        (* The magnitude's digits, read off [c]'s: [-min_int] has none. *)
        let digits = string_of_int c in
        let sign_str, mag =
          if c < 0 then ("-", String.sub digits 1 (String.length digits - 1))
          else ((if !first then "" else "+"), digits)
        in
        if not !first then Format.pp_print_char ppf ' ';
        if sign_str <> "" then
          Format.fprintf ppf "%s%s" sign_str (if !first then "" else " ");
        if Monomial.is_unit m then Format.pp_print_string ppf mag
        else if mag = "1" then Monomial.pp ppf m
        else Format.fprintf ppf "%s*%a" mag Monomial.pp m;
        first := false)
      (terms p)

let to_string p = Format.asprintf "%a" pp p
