(** Affine forms of subscript expressions.

    A subscript such as [N*N*k + N*j + i] is, with respect to the loop
    variables [{i, j, k}], the affine form
    [1·i + N·j + N²·k + 0] whose coefficients and constant part are
    loop-invariant polynomials ({!Dlz_symbolic.Poly.t}).  Dependence
    equations are built by subtracting two such forms. *)

module Poly = Dlz_symbolic.Poly

type t
(** An affine form: a finite map from loop-variable names to polynomial
    coefficients, plus a polynomial constant part. *)

val const : Poly.t -> t
val of_int : int -> t
val term : Poly.t -> string -> t
(** [term c v] is the form [c·v]. *)

val add : t -> t -> t

val coeff : t -> string -> Poly.t
(** Coefficient of a loop variable ([zero] when absent). *)

val konst : t -> Poly.t
val loop_vars : t -> string list
(** Variables with nonzero coefficient, sorted. *)

val terms : t -> (string * Poly.t) list
(** Nonzero [(variable, coefficient)] pairs, sorted by variable. *)

val is_const : t -> bool

val rename : (string -> string) -> t -> t
(** Renames loop variables (used to give the two references of a
    dependence pair disjoint instance names, e.g. [i ↦ i#1]).  Raises
    [Invalid_argument] if the renaming merges two variables. *)

val subst_var : string -> t -> t -> t
(** [subst_var v f' f] replaces loop variable [v] in [f] by the affine
    form [f']: the closed-form induction-variable substitution. *)

val eval : loop:(string -> int) -> sym:(string -> int) -> t -> int
(** Evaluates under loop-variable and symbol valuations. *)

val of_expr : is_loop_var:(string -> bool) -> Expr.t -> t option
(** Converts an expression; [None] when the expression is not affine in
    the loop variables (products of loop variables, division, opaque
    calls).  Scalars that are not loop variables become polynomial
    symbols. *)

val to_expr : t -> Expr.t
