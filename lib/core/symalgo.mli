(** Symbolic delinearization (paper §4, "Symbolics handling").

    The same Figure-4 scan, but coefficients, the constant term, bounds,
    gcds and residues are polynomials over symbols of unknown value, and
    every comparison is decided under an assumption environment (e.g.
    [N ≥ 2], derived from declarations).  Decisions the environment
    cannot settle are treated conservatively: an undecidable barrier is
    simply not drawn, an undecidable sign poisons further accumulation,
    and the affected group stays together — soundness never depends on
    symbolic completeness. *)

module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Symeq = Dlz_deptest.Symeq
module Depeq = Dlz_deptest.Depeq
module Problem = Dlz_deptest.Problem

type step = {
  k : int;
  coeff : Poly.t option;  (** [None] on the final (n+1)-th step. *)
  smin : Poly.t;
  smax : Poly.t;
  gk : Poly.t option;  (** [None] means infinity. *)
  r : Poly.t;
  barrier : bool;
  separated : Symeq.t option;
}

type result = {
  verdict : Verdict.t;
  pieces : Symeq.t list;
  dirvecs : Dirvec.Set.t;
  distances : (int * Poly.t) list;
      (** [(level, β-α)] distances proven constant (possibly symbolic,
          e.g. [N]). *)
  steps : step list;
}

val run :
  ?check_independence:bool ->
  env:Assume.t ->
  n_common:int ->
  Symeq.t ->
  result
(** Runs the symbolic algorithm.  [check_independence:false] turns off
    the inline [cmin > 0 ∨ cmax < 0] cut — the mode used when separating
    the dimensions of a single reference for array reshaping (the §4
    example), where the "equation" is not a dependence equation. *)

val step_table : step list -> Dlz_base.Table.t
(** The §4 table of a scan: {!Algo.step_table}'s columns with
    polynomial cells, all left-aligned. *)

(** {2 One equation of a dependence problem}

    The per-equation decision of the ["delinearize"] strategy.  The
    engine folds it over the equations of a symbolic or mixed problem;
    a numeric problem goes to {!Algo.solve}, whose answer is the meet
    of these per-equation answers.  [vic trace] shows each equation's
    scan through it. *)

type outcome =
  | Numeric of Depeq.t * Algo.result
      (** The equation divided by the gcd of its coefficients and
          constant (as the cache key divides it), and the numeric scan
          of that reduced equation. *)
  | Symbolic of result
      (** Some coefficient or common-loop bound is symbolic. *)
  | Overflow of string
      (** A scan overflowed 63 bits in the named operation. *)

val equation : env:Assume.t -> Problem.t -> Symeq.t -> outcome
(** [equation ~env p eq] delinearizes [eq], one of [p]'s equations:
    numerically over [p]'s common loops when the equation and every
    common bound are constants, symbolically otherwise.  An
    {!Dlz_base.Intx.Overflow} becomes [Overflow], never an exception.
    Partial application to [p] computes the numeric bounds once. *)

val answer :
  n_common:int -> outcome -> Verdict.t * Dirvec.Set.t * (int * Poly.t) list
(** The verdict, direction vectors and [(level, β-α)] distances an
    outcome proves; [Overflow] answers dependent in every direction,
    with no distance. *)
