module Poly = Dlz_symbolic.Poly

type svar = {
  s_name : string;
  s_ub : Poly.t;
  s_side : [ `Src | `Dst ];
  s_level : int;
}

type t = { c0 : Poly.t; terms : (Poly.t * svar) list }

let var ?(side = `Src) ?(level = 0) name ub =
  { s_name = name; s_ub = ub; s_side = side; s_level = level }

let same_var a b =
  a.s_side = b.s_side && a.s_level = b.s_level
  && (a.s_level <> 0 || String.equal a.s_name b.s_name)

let make c0 terms =
  let merged =
    List.fold_left
      (fun acc (c, v) ->
        let rec go = function
          | [] -> [ (c, v) ]
          | (c', v') :: rest when same_var v' v -> (Poly.add c' c, v') :: rest
          | tv :: rest -> tv :: go rest
        in
        go acc)
      [] terms
  in
  { c0; terms = List.filter (fun (c, _) -> not (Poly.is_zero c)) merged }

let of_affine_pair ~src ~src_loops ~dst ~dst_loops =
  let module Affine = Dlz_ir.Affine in
  let module Access = Dlz_ir.Access in
  let side_terms form loops side suffix =
    List.mapi
      (fun i (l : Access.loop) ->
        let c = Affine.coeff form l.l_var in
        (c, var ~side ~level:(i + 1) (l.l_var ^ suffix) l.l_ub))
      loops
  in
  let src_terms = side_terms src src_loops `Src "1" in
  let dst_terms =
    List.map (fun (c, v) -> (Poly.neg c, v)) (side_terms dst dst_loops `Dst "2")
  in
  make
    (Poly.sub (Affine.konst src) (Affine.konst dst))
    (src_terms @ dst_terms)

let instantiate env eq =
  let terms =
    List.map
      (fun (c, v) ->
        let ub = Poly.eval env v.s_ub in
        if ub < 0 then
          invalid_arg ("Symeq.instantiate: negative bound for " ^ v.s_name);
        (Poly.eval env c, Depeq.var ~side:v.s_side ~level:v.s_level v.s_name ub))
      eq.terms
  in
  Depeq.make (Poly.eval env eq.c0) terms

(* A symbol anywhere, or a negative bound, leaves no integer form. *)
let to_numeric eq =
  match instantiate (fun _ -> raise_notrace Not_found) eq with
  | neq -> Some neq
  | exception (Not_found | Invalid_argument _) -> None

module Sset = Set.Make (String)

let symbols eq =
  let add acc p = List.fold_left (fun s v -> Sset.add v s) acc (Poly.vars p) in
  let acc = add Sset.empty eq.c0 in
  let acc =
    List.fold_left (fun acc (c, v) -> add (add acc c) v.s_ub) acc eq.terms
  in
  Sset.elements acc

let pp ppf eq =
  List.iteri
    (fun i (c, v) ->
      if i > 0 then Format.pp_print_string ppf " + ";
      Format.fprintf ppf "(%a)*%s" Poly.pp c v.s_name)
    eq.terms;
  if eq.terms = [] || not (Poly.is_zero eq.c0) then
    Format.fprintf ppf "%s(%a)"
      (if eq.terms = [] then "" else " + ")
      Poly.pp eq.c0;
  Format.fprintf ppf " = 0 ; ";
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (_, v) ->
      Format.fprintf ppf "%s in [0,%a]" v.s_name Poly.pp v.s_ub)
    ppf eq.terms
