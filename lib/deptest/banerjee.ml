open Dlz_base

(* The linear form a*α + b*β at one vertex. *)
let value a b alpha beta = Intx.add (Intx.mul a alpha) (Intx.mul b beta)

(* The hull of four vertex values, computed in the listed order (so an
   overflow names the operation of the first vertex that overflows). *)
let hull4 a b a1 b1 a2 b2 a3 b3 a4 b4 =
  let v1 = value a b a1 b1 in
  let v2 = value a b a2 b2 in
  let v3 = value a b a3 b3 in
  let v4 = value a b a4 b4 in
  Ivl.make
    (Int.min (Int.min v1 v2) (Int.min v3 v4))
    (Int.max (Int.max v1 v2) (Int.max v3 v4))

(* Extrema of a*α + b*β over the region of the (α, β) box selected by a
   direction, by evaluating at the region's vertices (the region is the
   intersection of a box with a half-plane, so it is a polygon whose
   vertices are integral; a linear form attains its extrema there). *)
let rec pair_interval a ub_a b ub_b (dir : Dirvec.dir) =
  match dir with
  | Dirvec.Star ->
      Ivl.add (Ivl.scale a (Ivl.make 0 ub_a)) (Ivl.scale b (Ivl.make 0 ub_b))
  | Dirvec.Eq ->
      let m = min ub_a ub_b in
      Ivl.scale (Intx.add a b) (Ivl.make 0 m)
  | Dirvec.Lt ->
      (* α < β: polygon {0 ≤ α ≤ ub_a, α < β ≤ ub_b}. *)
      if ub_b < 1 then Ivl.empty
      else
        let tmax = min ub_a (ub_b - 1) in
        hull4 a b 0 1 0 ub_b tmax (tmax + 1) tmax ub_b
  | Dirvec.Gt ->
      if ub_a < 1 then Ivl.empty
      else
        let smax = min ub_b (ub_a - 1) in
        hull4 a b 1 0 ub_a 0 (smax + 1) smax ub_a smax
  | Dirvec.Le | Dirvec.Ge | Dirvec.Ne ->
      List.fold_left
        (fun acc d -> Ivl.join acc (pair_interval a ub_a b ub_b d))
        Ivl.empty (Dirvec.refinements dir)

(* The closed-form direction bounds (Banerjee's c+/c- formulas), derived
   by the same case analysis the vertex method encodes geometrically:
   under α < β substitute β = α + d with d ∈ [1, B - α] and optimize the
   two linear pieces separately. *)
let rec pair_interval_closed a ub_a b ub_b (dir : Dirvec.dir) =
  let ( + ) = Intx.add and ( * ) = Intx.mul in
  match dir with
  | Dirvec.Star ->
      Ivl.make
        ((Intx.neg_part a * ub_a) + (Intx.neg_part b * ub_b))
        ((Intx.pos_part a * ub_a) + (Intx.pos_part b * ub_b))
  | Dirvec.Eq ->
      let m = min ub_a ub_b in
      Ivl.make (Intx.neg_part (a + b) * m) (Intx.pos_part (a + b) * m)
  | Dirvec.Lt ->
      if ub_b < 1 then Ivl.empty
      else
        let m = min ub_a (Stdlib.( - ) ub_b 1) in
        if b >= 0 then
          Ivl.make
            ((Intx.neg_part (a + b) * m) + b)
            ((Intx.pos_part a * m) + (b * ub_b))
        else
          Ivl.make
            ((Intx.neg_part a * m) + (b * ub_b))
            ((Intx.pos_part (a + b) * m) + b)
  | Dirvec.Gt ->
      if ub_a < 1 then Ivl.empty
      else
        let m = min ub_b (Stdlib.( - ) ub_a 1) in
        if a >= 0 then
          Ivl.make
            ((Intx.neg_part (a + b) * m) + a)
            ((Intx.pos_part b * m) + (a * ub_a))
        else
          Ivl.make
            ((Intx.neg_part b * m) + (a * ub_a))
            ((Intx.pos_part (a + b) * m) + a)
  | Dirvec.Le | Dirvec.Ge | Dirvec.Ne ->
      List.fold_left
        (fun acc d -> Ivl.join acc (pair_interval_closed a ub_a b ub_b d))
        Ivl.empty (Dirvec.refinements dir)

(* Accumulate the equation's range into [acc] (reset here), walking
   the terms directly: level-0 terms contribute their scaled box with
   no allocation at all, and each common level contributes one
   [pair_fn] interval, added at its [`Src] term (or at the [`Dst]
   term when the source instance is absent).  A missing side means the
   variable's coefficient is 0 in this equation; its bound is unknown
   here, so its instance is left unconstrained (conservative: never
   shrinks the range below what the true bound would give).  Level
   feasibility against real bounds is enforced by the hierarchy
   driver. *)
let accumulate_gen pair_fn dirs acc (eq : Depeq.t) =
  Ivl.Acc.set_point acc eq.c0;
  let rec go = function
    | [] -> ()
    | (t : Depeq.term) :: rest ->
        let v = t.var in
        (if v.v_level = 0 then Ivl.Acc.add_scaled acc t.coeff v.v_ub
         else
           let lvl = v.v_level in
           match v.v_side with
           | `Src ->
               Ivl.Acc.add_ivl acc
                 (if Depeq.has_side eq ~level:lvl `Dst then
                    pair_fn t.coeff v.v_ub
                      (Depeq.find_coeff eq ~level:lvl `Dst)
                      (Depeq.find_ub eq ~level:lvl `Dst)
                      (dirs lvl)
                  else pair_fn t.coeff v.v_ub 0 max_int (dirs lvl))
           | `Dst ->
               if not (Depeq.has_side eq ~level:lvl `Src) then
                 Ivl.Acc.add_ivl acc
                   (pair_fn 0 max_int t.coeff v.v_ub (dirs lvl)));
        go rest
  in
  go eq.terms

(* One reusable accumulator per domain: [test] decides containment on
   plain ints and allocates nothing beyond [pair_fn]'s intervals. *)
let acc_key = Domain.DLS.new_key (fun () -> Ivl.Acc.create ())

let interval_gen pair_fn ?(dirs = fun _ -> Dirvec.Star) (eq : Depeq.t) =
  let acc = Domain.DLS.get acc_key in
  accumulate_gen pair_fn dirs acc eq;
  Ivl.Acc.to_ivl acc

let interval ?dirs eq = interval_gen pair_interval ?dirs eq
let interval_closed ?dirs eq = interval_gen pair_interval_closed ?dirs eq

let test ?(dirs = fun _ -> Dirvec.Star) eq =
  let acc = Domain.DLS.get acc_key in
  accumulate_gen pair_interval dirs acc eq;
  if Ivl.Acc.contains_zero acc then Verdict.Dependent
  else Verdict.Independent
