(** Banerjee inequalities [AK87, WB87], with direction-vector constraints.

    The test bounds the left-hand side [c0 + Σ ck*zk] over the (real
    relaxation of the) iteration box, optionally restricted by a
    direction for each common loop, and reports independence when the
    range excludes zero.  Direction regions are triangular; we compute
    their exact linear-programming extrema by vertex enumeration, which
    coincides with Banerjee's closed-form direction bounds. *)

val pair_interval : int -> int -> int -> int -> Dirvec.dir -> Dlz_base.Ivl.t
(** [pair_interval a ub_a b ub_b dir] is the exact range of
    [a*α + b*β] over the part of the box [0 ≤ α ≤ ub_a, 0 ≤ β ≤ ub_b]
    selected by [dir], by vertex enumeration. *)

val pair_interval_closed :
  int -> int -> int -> int -> Dirvec.dir -> Dlz_base.Ivl.t
(** The same range from Banerjee's closed-form [c⁺]/[c⁻] direction
    bounds.  Exposed, like {!pair_interval}, so the test suite can check
    the two derivations against each other exhaustively. *)

val interval : ?dirs:(int -> Dirvec.dir) -> Depeq.t -> Dlz_base.Ivl.t
(** Exact range of the left-hand side over the (integer-vertexed) region
    selected by [dirs]; the empty interval when some direction is
    infeasible (e.g. [<] inside a 1-trip loop).  Each common level
    contributes its {!pair_interval} at the pair {!Depeq.fold_levels}
    gives it, in term order with the level-0 boxes; once the range is
    empty a level-0 product is skipped, but each later pair range is
    still computed (so an overflow in it still raises).  Without
    [dirs] it is the hull of [c0 + Σ ck·[0, Zk]]. *)

val test : ?dirs:(int -> Dirvec.dir) -> Depeq.t -> Verdict.t
(** [Independent] iff {!interval} excludes zero.  With {!Gcd_test.test},
    the node test of {!Hierarchy.directions}' checked walk. *)

val interval_closed : ?dirs:(int -> Dirvec.dir) -> Depeq.t -> Dlz_base.Ivl.t
(** The same range computed with Banerjee's closed-form direction bounds
    (the textbook [c⁺]/[c⁻] formulas) instead of vertex enumeration.
    The two must agree — a property the test suite checks; kept as an
    executable rendering of the published formulas. *)
