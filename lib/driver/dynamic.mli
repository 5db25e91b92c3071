(** Dynamic (trace-based) dependences: ground truth for the analyzer.

    A fold over {!Dlz_passes.Interp}'s access stream: for every memory
    cell it tracks the last writing statement instance and the reading
    instances since, and emits every flow, anti and output dependence
    that actually happens, summarized as basic direction vectors over
    the two statements' common loops.  The integration tests check that
    every dynamic dependence is covered by some statically reported one
    — the soundness statement for the whole pipeline, per program. *)

module Dirvec = Dlz_deptest.Dirvec
module Classify = Dlz_deptest.Classify

type dep = {
  src_stmt : int;  (** Statement id (program order of assignments). *)
  dst_stmt : int;  (** The instance that executes later. *)
  kind : Classify.kind;
  vec : Dirvec.t;  (** Basic, over the statements' common loops. *)
}

val dependences :
  ?syms:(string * int) list -> ?fuel:int -> Dlz_ir.Ast.program -> dep list
(** All distinct dynamic dependences, in first-occurrence order.
    Within-statement same-instance flows (the read feeding its own
    write) are omitted, matching the static convention, and so are
    reads in DO bounds, which belong to no statement.  Raises
    {!Dlz_passes.Interp.Error} on non-executable input or fuel
    exhaustion. *)

val uncovered :
  dep list -> Dlz_engine.Analyze.dep list -> dep list
(** Dynamic dependences not covered by any static row, where a static
    row covers a dynamic dependence when the statement pair matches (in
    either orientation, reversing the vector for the flipped one) and
    the static direction vector admits the dynamic one.  Soundness of
    the analyzer on a program = [uncovered dyn static = []]. *)
