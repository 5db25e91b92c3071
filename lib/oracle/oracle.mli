(** Bounded brute-force ground truth for numeric dependence problems.

    The oracle decides a constrained dependence system by exhaustive
    integer search over the variable box — deliberately naive, sharing
    no code with any strategy under test.  Every left-hand side is
    evaluated with {!Dlz_base.Intx} checked arithmetic; a point whose
    evaluation overflows has unknown membership and taints completeness
    rather than silently corrupting the answer.

    Enumeration is bounded three ways: a point-count [limit] (boxes
    larger than it are rejected up front), an optional {!Dlz_base.Budget}
    (one unit per point), and the overflow taint.  Whenever any bound
    bites without a witness having been found, the oracle says
    {e unknown} — it never guesses. *)

module Budget = Dlz_base.Budget
module Depeq = Dlz_deptest.Depeq
module Problem = Dlz_deptest.Problem
module Dirvec = Dlz_deptest.Dirvec

type point = (Depeq.var * int) list
(** One assignment: a value for every distinct [(side, level)] variable
    of the system. *)

type outcome =
  | Sat of point  (** Witnessed integer solution. *)
  | Unsat  (** Exhaustively refuted: no solution exists. *)
  | Unknown of string
      (** Could not complete: ["limit"], ["overflow"], or
          ["budget:<why>"]. *)

val decide : ?budget:Budget.t -> ?limit:int -> Problem.numeric -> outcome
(** Search the box for any simultaneous integer solution.  The default
    [limit] is 2,000,000 points. *)

type violation = {
  v_kind : [ `Verdict | `Dirvec | `Distance ];
  v_point : point;  (** The solution realizing the violation. *)
  v_detail : string;
}

type verification = Consistent | Violated of violation | Inconclusive of string

val verify :
  ?budget:Budget.t ->
  ?limit:int ->
  Problem.numeric ->
  verdict:Dlz_deptest.Verdict.t ->
  dirvecs:Dirvec.t list ->
  distances:(int * int) list ->
  verification
(** Check a strategy's full claim against every solution of the box:
    an [Independent] verdict must meet no solution at all; every
    realized direction vector must be admitted by some claimed vector
    (an empty claim list checks nothing); every claimed per-level
    distance must hold universally.  Levels a solution leaves unbound
    are skipped — they admit any direction, so no claim about them can
    be refuted pointwise. *)

val point_to_string : point -> string
