(** Direction-vector hierarchy refinement [WB87, GKT91].

    Starting from [(*, ..., *)], each [*] is refined into [<], [=], [>];
    a subtree is pruned as soon as a level's direction is infeasible in
    its loop or GCD-with-directions ∧ Banerjee-with-directions disproves
    dependence for some equation under the partial vector (a child
    re-tests only the equations with a term at its own level: the
    others see the vector its parent passed with) — the
    combination the paper proves its algorithm matches per dimension.
    The surviving leaves are the reported direction vectors: the
    "existing techniques" the paper's algorithm calls to solve
    separated equations. *)

val directions : ?budget:Dlz_base.Budget.t -> Problem.numeric -> Dirvec.Set.t
(** All basic direction vectors not disproven, as a packed set over the
    [n_common] levels (sorted by {!Dirvec.compare}); the empty set
    means independence.  Each leaf is packed where the walk reaches it,
    and the leaves arrive in sorted order, so nothing is sorted
    afterwards.  One [budget] unit is spent per refinement node,
    in the walk's order (children in [<], [=], [>] order); exhaustion
    raises {!Dlz_base.Budget.Exhausted} (a truncated set would read as
    proven independence).  A level no equation mentions is solved once
    and its other children copy the result, but each node a copy stands
    for is still charged, so fuel runs out where the full walk would.
    [common_ubs] gives the bounds of the first [n_common] levels.

    When every equation is {!bounded}, the walk reads a table built once
    per call, folded from each equation by {!Depeq.fold_levels} as the
    two tests fold it: per equation,
    its constant part ([c0], the level-0 terms and the terms beyond
    [n_common], as one interval and one gcd) and, for each common level
    it mentions, the four {!Banerjee.pair_interval} ranges under [<],
    [=], [>] and [*] and the gcd of its coefficients under [=] and
    under any other direction.  A node then sums one table entry per
    mentioned level in native [int]s, and recomputes the gcd only at
    the root and at [=] children: a [<] or [>] child's equations last
    passed at an ancestor that saw its level as [*], and the gcd reads
    the same coefficients under all three.  No value the walk forms can
    exceed the bound, so native arithmetic gives what the checked one
    would, and no overflow can fire.  Any other walk (the near-overflow
    family) is the checked walk: its node test is {!Banerjee.test} and
    then {!Gcd_test.test} with directions, both run, per tested
    equation, so an {!Dlz_base.Intx.Overflow} fires at the node and
    operation where testing every equation at every node would raise
    it.  On both paths the answer, the fuel spent and the exhaustion
    point are those of that per-node formulation. *)

val bounded : Depeq.t -> bool
(** Whether [|c0| + Σ|c|·max(ub, 1)] fits in an [int] (every bound
    nonnegative, as {!Depeq.make} ensures).  It bounds every value GCD-
    and Banerjee-with-directions form for the equation: a vertex value
    [a*α + b*β], a merged coefficient [a + b] (hence [max(ub, 1)]: a
    loop of one iteration still merges), and every partial sum from
    [c0].  So no walk over bounded equations can overflow. *)

val feasible_dir : ub:int -> Dirvec.dir -> bool
(** Whether a direction is realizable inside a common loop of the given
    normalized upper bound ([<] and [>] need at least two iterations). *)
