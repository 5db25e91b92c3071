module Poly = Dlz_symbolic.Poly
module Smap = Map.Make (String)

type t = { coeffs : Poly.t Smap.t; konst : Poly.t }
(* Invariant: no zero polynomial is stored in [coeffs]. *)

let const p = { coeffs = Smap.empty; konst = p }
let of_int c = const (Poly.const c)

let term c v =
  if Poly.is_zero c then const Poly.zero
  else { coeffs = Smap.singleton v c; konst = Poly.zero }

let add a b =
  {
    coeffs =
      Smap.union
        (fun _ c1 c2 ->
          let c = Poly.add c1 c2 in
          if Poly.is_zero c then None else Some c)
        a.coeffs b.coeffs;
    konst = Poly.add a.konst b.konst;
  }

let neg a =
  { coeffs = Smap.map Poly.neg a.coeffs; konst = Poly.neg a.konst }

let sub a b = add a (neg b)

let scale p a =
  if Poly.is_zero p then const Poly.zero
  else
    { coeffs = Smap.map (Poly.mul p) a.coeffs; konst = Poly.mul p a.konst }

let coeff a v = Option.value (Smap.find_opt v a.coeffs) ~default:Poly.zero
let konst a = a.konst
let loop_vars a = List.map fst (Smap.bindings a.coeffs)
let terms a = Smap.bindings a.coeffs
let is_const a = Smap.is_empty a.coeffs

let rename f a =
  let coeffs =
    Smap.fold
      (fun v c acc ->
        let v' = f v in
        if Smap.mem v' acc then invalid_arg "Affine.rename: merging variables";
        Smap.add v' c acc)
      a.coeffs Smap.empty
  in
  { a with coeffs }

let subst_var v f' f =
  match Smap.find_opt v f.coeffs with
  | None -> f
  | Some c ->
      let without = { f with coeffs = Smap.remove v f.coeffs } in
      add without (scale c f')

let eval ~loop ~sym a =
  let open Dlz_base in
  Smap.fold
    (fun v c acc -> Intx.add acc (Intx.mul (Poly.eval sym c) (loop v)))
    a.coeffs (Poly.eval sym a.konst)

let rec of_expr ~is_loop_var e =
  let ( let* ) = Option.bind in
  match e with
  | Expr.Const c -> Some (of_int c)
  | Expr.Var v ->
      if is_loop_var v then Some (term Poly.one v)
      else Some (const (Poly.sym v))
  | Expr.Neg a ->
      let* fa = of_expr ~is_loop_var a in
      Some (neg fa)
  | Expr.Bin (Expr.Add, a, b) ->
      let* fa = of_expr ~is_loop_var a in
      let* fb = of_expr ~is_loop_var b in
      Some (add fa fb)
  | Expr.Bin (Expr.Sub, a, b) ->
      let* fa = of_expr ~is_loop_var a in
      let* fb = of_expr ~is_loop_var b in
      Some (sub fa fb)
  | Expr.Bin (Expr.Mul, a, b) -> (
      let* fa = of_expr ~is_loop_var a in
      let* fb = of_expr ~is_loop_var b in
      match (is_const fa, is_const fb) with
      | true, _ -> Some (scale fa.konst fb)
      | _, true -> Some (scale fb.konst fa)
      | false, false -> None)
  | Expr.Bin (Expr.Div, _, _) | Expr.Call _ -> None

let to_expr a =
  let e = Expr.of_poly a.konst in
  Smap.fold
    (fun v c acc ->
      let term_e =
        match Poly.to_const c with
        | Some 1 -> Expr.Var v
        | Some (-1) -> Expr.Neg (Expr.Var v)
        | Some k -> Expr.Bin (Expr.Mul, Expr.Const k, Expr.Var v)
        | None -> Expr.Bin (Expr.Mul, Expr.of_poly c, Expr.Var v)
      in
      match acc with
      | Expr.Const 0 -> term_e
      | _ -> Expr.Bin (Expr.Add, acc, term_e))
    a.coeffs e
  |> Expr.fold_consts
