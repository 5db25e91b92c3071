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

(* Allocation-free per-(level, side) lookups: [make] merged duplicate
   variables, so at most one term matches.  The option-returning
   [common_pairs] below stays for callers that want the paired view;
   these are for the hot tests, which must not cons per equation. *)

let has_side eq ~level side =
  let rec go = function
    | [] -> false
    | t :: rest ->
        (t.var.v_level = level && t.var.v_side = side) || go rest
  in
  go eq.terms

let find_coeff eq ~level side =
  let rec go = function
    | [] -> 0
    | t :: rest ->
        if t.var.v_level = level && t.var.v_side = side then t.coeff
        else go rest
  in
  go eq.terms

let find_ub eq ~level side =
  let rec go = function
    | [] -> 0
    | t :: rest ->
        if t.var.v_level = level && t.var.v_side = side then t.var.v_ub
        else go rest
  in
  go eq.terms

let lhs_interval eq =
  (* [c0 + Σ coeff*[0, ub]] accumulated on two plain ints — same hull
     as folding [Ivl.scale]/[Ivl.add], without a [Range] per step. *)
  let rec go lo hi = function
    | [] -> Ivl.make lo hi
    | t :: rest ->
        if t.coeff >= 0 then
          go lo (Intx.add hi (Intx.mul t.coeff t.var.v_ub)) rest
        else go (Intx.add lo (Intx.mul t.coeff t.var.v_ub)) hi rest
  in
  go eq.c0 eq.c0 eq.terms

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

let common_pairs eq =
  let levels =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun t -> if t.var.v_level > 0 then Some t.var.v_level else None)
         eq.terms)
  in
  List.map
    (fun lvl ->
      let find side =
        List.find_map
          (fun t ->
            if t.var.v_level = lvl && t.var.v_side = side then
              Some (t.coeff, t.var)
            else None)
          eq.terms
      in
      (lvl, find `Src, find `Dst))
    levels

let pp ppf eq =
  let pp_term first ppf t =
    let sign = if t.coeff < 0 then "- " else if first then "" else "+ " in
    let mag = Intx.abs t.coeff in
    if mag = 1 then Format.fprintf ppf "%s%s" sign t.var.v_name
    else Format.fprintf ppf "%s%d*%s" sign mag t.var.v_name
  in
  (match eq.terms with
  | [] -> Format.fprintf ppf "%d" eq.c0
  | t0 :: rest ->
      pp_term true ppf t0;
      List.iter (fun t -> Format.fprintf ppf " %a" (pp_term false) t) rest;
      if eq.c0 <> 0 then
        Format.fprintf ppf " %s %d"
          (if eq.c0 < 0 then "-" else "+")
          (Intx.abs eq.c0));
  Format.fprintf ppf " = 0";
  if eq.terms <> [] then begin
    Format.fprintf ppf " ; ";
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      (fun ppf t -> Format.fprintf ppf "%s in [0,%d]" t.var.v_name t.var.v_ub)
      ppf eq.terms
  end

let to_string eq = Format.asprintf "%a" pp eq
