open Dlz_base

type var = {
  v_name : string;
  v_ub : int;
  v_side : [ `Src | `Dst ];
  v_level : int;
}

type term = { coeff : int; var : var }
type t = { c0 : int; terms : term list }

let var ?(side = `Src) ?(level = 0) name ub =
  { v_name = name; v_ub = ub; v_side = side; v_level = level }

let same_var a b =
  a.v_side = b.v_side && a.v_level = b.v_level
  && (a.v_level <> 0 || String.equal a.v_name b.v_name)

let make c0 terms =
  List.iter
    (fun (_, v) ->
      if v.v_ub < 0 then
        invalid_arg ("Depeq.make: negative bound for " ^ v.v_name))
    terms;
  let merged =
    List.fold_left
      (fun acc (c, v) ->
        let rec go = function
          | [] -> [ { coeff = c; var = v } ]
          | t :: rest when same_var t.var v ->
              { t with coeff = Intx.add t.coeff c } :: rest
          | t :: rest -> t :: go rest
        in
        go acc)
      [] terms
  in
  { c0; terms = List.filter (fun t -> t.coeff <> 0) merged }

let nvars eq = List.length eq.terms
let coeffs eq = List.map (fun t -> t.coeff) eq.terms

(* The pairing rule, written once.  [make] merged duplicate variables,
   so a level has at most one term per side; an absent side is
   [absent]: coefficient 0, bound [max_int]. *)
let absent = { coeff = 0; var = var "" max_int }

let rec other level side = function
  | [] -> absent
  | t :: rest ->
      if t.var.v_level = level && t.var.v_side = side then t
      else other level side rest

let rec fold_from ~free ~pair ~sink terms acc = function
  | [] -> acc
  | t :: rest ->
      let v = t.var in
      let acc =
        if v.v_level = 0 then free acc t.coeff v.v_ub
        else
          match v.v_side with
          | `Src ->
              let d = other v.v_level `Dst terms in
              pair acc v.v_level t.coeff v.v_ub d.coeff d.var.v_ub
          | `Dst ->
              let acc =
                if other v.v_level `Src terms == absent then
                  pair acc v.v_level 0 max_int t.coeff v.v_ub
                else acc
              in
              sink acc v.v_level t.coeff
      in
      fold_from ~free ~pair ~sink terms acc rest

let fold_levels ~free ~pair ~sink eq init =
  fold_from ~free ~pair ~sink eq.terms init eq.terms

let lookup asg v =
  match List.find_opt (fun (w, _) -> same_var w v) asg with
  | Some (_, x) -> x
  | None -> 0

let eval eq asg =
  List.fold_left
    (fun acc t -> Intx.add acc (Intx.mul t.coeff (lookup asg t.var)))
    eq.c0 eq.terms

let holds eq asg = eval eq asg = 0

let assignments eq =
  let rec go = function
    | [] -> Seq.return []
    | t :: rest ->
        let tails = go rest in
        Seq.concat_map
          (fun tail ->
            Seq.map
              (fun x -> (t.var, x) :: tail)
              (Seq.init (t.var.v_ub + 1) Fun.id))
          tails
  in
  go eq.terms

(* The magnitude's digits, read off [c]'s: [-min_int] has none. *)
let magnitude c =
  let digits = string_of_int c in
  if c < 0 then String.sub digits 1 (String.length digits - 1) else digits

let pp ppf eq =
  let pp_term first ppf t =
    let sign = if t.coeff < 0 then "- " else if first then "" else "+ " in
    let mag = magnitude t.coeff in
    if mag = "1" then Format.fprintf ppf "%s%s" sign t.var.v_name
    else Format.fprintf ppf "%s%s*%s" sign mag t.var.v_name
  in
  (match eq.terms with
  | [] -> Format.fprintf ppf "%d" eq.c0
  | t0 :: rest ->
      pp_term true ppf t0;
      List.iter (fun t -> Format.fprintf ppf " %a" (pp_term false) t) rest;
      if eq.c0 <> 0 then
        Format.fprintf ppf " %s %s"
          (if eq.c0 < 0 then "-" else "+")
          (magnitude eq.c0));
  Format.fprintf ppf " = 0";
  if eq.terms <> [] then begin
    Format.fprintf ppf " ; ";
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      (fun ppf t -> Format.fprintf ppf "%s in [0,%d]" t.var.v_name t.var.v_ub)
      ppf eq.terms
  end

let to_string eq = Format.asprintf "%a" pp eq
