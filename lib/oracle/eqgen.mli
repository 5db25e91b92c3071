(** Test-case generators for the differential oracle.

    Each case pairs the problem a strategy sees with the numeric ground
    problem the oracle decides.  For purely numeric families the two
    coincide (the problem is the {!Dlz_deptest.Problem.synthetic} lift
    of the generated system, and the ground is that problem's own
    [numeric] field, held once); the symbolic family keeps polynomial
    coefficients on the strategy side and grounds them at a concrete
    instantiation its assumptions admit — a strategy claiming
    independence under the assumptions must survive every such
    instantiation.

    All generators are deterministic in [seed]. *)

module Assume = Dlz_symbolic.Assume
module Problem = Dlz_deptest.Problem

type case = {
  id : string;  (** ["family:index"], unique within a batch. *)
  family : string;
  problem : Problem.t;  (** What the strategies see. *)
  ground : Problem.numeric;  (** What the oracle decides. *)
  env : Assume.t;
}

val random : seed:int64 -> count:int -> case list
(** Random numeric systems: 1–3 common loops, bounds ≤ 6, coefficients
    in [-8, 8]. *)

val corpus : unit -> case list
(** Every testable pair of the synthetic RiCEPS corpus; symbolic pairs
    are grounded at their assumption lower bounds. *)

val polybench : unit -> case list
(** Every testable pair of the vendored polybench-style mini-C corpus
    ({!Dlz_corpus.Polybench}), lowered through the pointer-conversion
    pass and the real pipeline. *)

val all : seed:int64 -> count:int -> case list
(** The default mixed batch: 40% random; 25% row-major linearized
    pairs [i + N*j (+ N*M*k)], the row extent sometimes crossing the
    stride; 15% symbolic-coefficient equations over a symbol [N] with
    an assumed lower bound, grounded at an admissible [N]; 10%
    near-overflow; the rest every testable reference pair of whole
    random programs ({!Dlz_driver.Progen.linearized_profile}) pushed
    through the real front-end pipeline. *)
