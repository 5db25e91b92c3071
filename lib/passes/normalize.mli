(** DO-loop normalization (paper §2).

    Every loop is rewritten to run from 0 to its trip count minus one by
    step 1, substituting [var := lo + step*var] in the body.  The paper
    assumes this form for the dependence definition; the substitution is
    exact, so the access trace is unchanged. *)

val simplify : Dlz_ir.Ast.program -> Dlz_ir.Ast.program
(** Canonicalizes affine subscripts, right-hand sides, bounds and
    steps through the polynomial form: [(I*(JJ-1+1)+J)*(KK-1+1)+K]
    renders as the paper's [K+J*KK+I*JJ*KK].  Semantics-preserving
    (checked by the interpreter tests). *)

val all : Dlz_ir.Ast.program -> Dlz_ir.Ast.program
(** Substitutes [PARAMETER] constants into bounds, subscripts and
    declarations and constant-folds, then normalizes every loop, then
    {!simplify}: the standard pipeline prefix.  Loops with a non-constant
    step are left untouched (none of the paper's programs need them);
    loops whose constant bounds give an empty range are deleted.  Raises
    [Failure] on a zero step. *)
