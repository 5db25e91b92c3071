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
    [common_ubs] gives the bounds of the first [n_common] levels. *)

val feasible_dir : ub:int -> Dirvec.dir -> bool
(** Whether a direction is realizable inside a common loop of the given
    normalized upper bound ([<] and [>] need at least two iterations). *)
