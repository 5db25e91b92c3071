(** The classic GCD test [AK87, Ban88].

    [c0 + Σ ck*zk = 0] has an integer solution only if
    [gcd(c1, ..., cn)] divides [c0].  Bounds are ignored, so the test
    never proves independence for equations like the paper's (1), where
    [gcd(1,10,1,10) = 1]. *)

val test : ?dirs:(int -> Dirvec.dir) -> Depeq.t -> Verdict.t
(** [test eq] is [Independent] iff the divisibility condition fails.
    With [dirs], loop pairs constrained to [=] are merged into a single
    variable (coefficient [a+b], at the pair {!Depeq.fold_levels}
    gives) before taking the gcd, which is how the test sharpens inside
    hierarchy refinement; every other coefficient is folded in term
    order.  With {!Banerjee.test},
    the node test of {!Hierarchy.directions}' checked walk. *)
