module Ivl = Dlz_base.Ivl

type t = Ivl.t array

let of_exact ~common_ubs eqs =
  let n_common = Array.length common_ubs in
  match Exact.solve eqs with
  | Exact.Unknown -> None
  | Exact.Infeasible -> Some (Array.make n_common Ivl.empty)
  | Exact.Feasible _ -> (
      let ok = ref true in
      let hull ds =
        List.fold_left (fun acc d -> Ivl.join acc (Ivl.point d)) Ivl.empty ds
      in
      let ranges =
        (* The searches rerun per level; small problems only. *)
        Array.init n_common (fun i ->
            let level = i + 1 in
            let ub = common_ubs.(i) in
            match Exact.distance_set ~level eqs with
            | None ->
                ok := false;
                Ivl.empty
            | Some (_ :: _ as ds) -> hull ds
            | Some [] -> (
                (* At most one side occurs in the equations; the other
                   instance is free over its trip range [0, ub]. *)
                let values side = Exact.level_values ~level ~side eqs in
                match (values `Src, values `Dst) with
                | None, _ | _, None ->
                    ok := false;
                    Ivl.empty
                | Some [], Some [] -> Ivl.make (-ub) ub
                | Some srcs, Some [] ->
                    Ivl.add (Ivl.make 0 ub) (Ivl.neg (hull srcs))
                | Some [], Some dsts ->
                    Ivl.add (hull dsts) (Ivl.neg (Ivl.make 0 ub))
                | Some _, Some _ ->
                    (* both present but never simultaneously: cannot
                       happen for conjunctive systems *)
                    Ivl.make (-ub) ub))
      in
      if !ok then Some ranges else None)

let dir_range ub (d : Dirvec.dir) =
  let open Dirvec in
  match d with
  | Lt -> Ivl.make 1 ub
  | Eq -> Ivl.point 0
  | Gt -> Ivl.make (-ub) (-1)
  | Le -> Ivl.make 0 ub
  | Ge -> Ivl.make (-ub) 0
  | Ne | Star -> Ivl.make (-ub) ub

let of_directions ~common_ubs dvs =
  let n = Array.length common_ubs in
  Array.init n (fun i ->
      List.fold_left
        (fun acc dv ->
          let d = if i < Array.length dv then dv.(i) else Dirvec.Star in
          Ivl.join acc (dir_range common_ubs.(i) d))
        Ivl.empty dvs)

let with_distances t distances =
  let t' = Array.copy t in
  List.iter
    (fun (lvl, d) ->
      if lvl >= 1 && lvl <= Array.length t' then
        t'.(lvl - 1) <- Ivl.inter t'.(lvl - 1) (Ivl.point d))
    distances;
  t'

let subsumes a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ia ib ->
         Ivl.is_empty ib
         || ((not (Ivl.is_empty ia))
            && Ivl.lo ia <= Ivl.lo ib
            && Ivl.hi ia >= Ivl.hi ib))
       a b

let to_string t =
  "("
  ^ String.concat ", "
      (Array.to_list (Array.map (Format.asprintf "%a" Ivl.pp) t))
  ^ ")"
