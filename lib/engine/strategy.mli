(** First-class dependence-test strategies.

    A strategy is one named entry of the engine's test registry: an
    applicability predicate plus a runner that either {e decides} a
    dependence query (with direction vectors and any proven distances)
    or {e passes}, handing the problem to the next strategy in the
    cascade.  Cheap conservative filters (GCD, Banerjee, SVPC, …) pass
    whenever they cannot prove independence; total strategies such as
    delinearization always decide.  This replaces the closed
    [Delinearize | Classic | ExactMode] variant with an open, composable
    structure — the cascade-of-increasingly-exact-tests the paper (and
    the variable-distance line of work after it) describes. *)

module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Problem = Dlz_deptest.Problem

type result = {
  verdict : Verdict.t;
  dirvecs : Dirvec.t list;  (** Surviving vectors over the common loops. *)
  distances : (int * Poly.t) list;  (** [(level, β−α)] proven distances. *)
  decided_by : string;  (** Provenance: the strategy that decided. *)
  degraded : (string * string) list;
      (** Fault provenance: [(strategy, reason)] for every strategy the
          cascade had to contain on the way to this result (empty on a
          clean run).  The verdict is conservative with respect to what
          the faulted strategies might have proven. *)
}

type status =
  | Decided of Verdict.t * Dirvec.t list * (int * Poly.t) list
  | Pass  (** Could not decide; the cascade continues. *)

type t = {
  name : string;
  applies : env:Assume.t -> Problem.t -> bool;
      (** Cheap applicability screen, checked before [run]. *)
  run : env:Assume.t -> budget:Dlz_base.Budget.t -> Problem.t -> status;
      (** May raise — [Intx.Overflow], [Budget.Exhausted], anything:
          the cascade contains the fault and degrades conservatively. *)
}

val decided :
  ?dirvecs:Dirvec.Set.t ->
  ?distances:(int * Poly.t) list ->
  Verdict.t ->
  status
(** A decision.  The solvers keep direction vectors packed; this is
    where they become the [Dirvec.t list] of the result (none when
    [dirvecs] is absent). *)

val conservative : ?degraded:(string * string) list -> Problem.t -> result
(** The sound catch-all when every strategy passed: dependent under the
    all-[*] vector. *)

val result_of_status :
  ?degraded:(string * string) list -> string -> status -> result option
(** Stamps provenance onto a decision; [None] on [Pass]. *)

val pp_result : Format.formatter -> result -> unit
