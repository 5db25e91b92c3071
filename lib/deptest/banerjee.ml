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

(* The range [lo, hi] of the left-hand side on plain ints, [lo > hi]
   once some level's range under its direction is empty.  Each common
   level adds its [pair_fn] range at the pair {!Depeq.fold_levels}
   gives; a missing side means the variable's coefficient is
   0 in this equation, and its bound, unknown here, leaves that
   instance unconstrained (conservative: never shrinks the range below
   what the true bound would give).  Level feasibility against real
   bounds is enforced by the hierarchy walk.  Once the range is
   empty a level-0 product is skipped, but each later pair range is
   still computed, so an overflow in it still fires. *)
let range pair_fn dirs (eq : Depeq.t) =
  Depeq.fold_levels eq (eq.c0, eq.c0)
    ~free:(fun ((lo, hi) as r) c ub ->
      if lo > hi then r
      else if c >= 0 then (lo, Intx.add hi (Intx.mul c ub))
      else (Intx.add lo (Intx.mul c ub), hi))
    ~pair:(fun ((lo, hi) as r) level a ub_a b ub_b ->
      let iv = pair_fn a ub_a b ub_b (dirs level) in
      if lo > hi then r
      else if Ivl.is_empty iv then (max_int, min_int)
      else (Intx.add lo (Ivl.lo iv), Intx.add hi (Ivl.hi iv)))
    ~sink:(fun r _ _ -> r)

let interval_gen pair_fn ?(dirs = fun _ -> Dirvec.Star) eq =
  let lo, hi = range pair_fn dirs eq in
  Ivl.make lo hi

let interval ?dirs eq = interval_gen pair_interval ?dirs eq
let interval_closed ?dirs eq = interval_gen pair_interval_closed ?dirs eq

let test ?(dirs = fun _ -> Dirvec.Star) eq =
  let lo, hi = range pair_interval dirs eq in
  if lo <= 0 && 0 <= hi then Verdict.Dependent else Verdict.Independent
