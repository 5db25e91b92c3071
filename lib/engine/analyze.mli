(** Whole-program dependence analysis driven by delinearization.

    For every pair of references to the same array (with at least one
    write), build the dependence problem, answer it through the
    {!Engine} — a memoized strategy-cascade query — and summarize the
    result the way the paper's Figure 3 does: one row per dependent
    pair, source = the writing reference (textual order breaks
    write-write ties), vectors joined when the join's decomposition is
    fully covered.

    [?cascade] selects the tester (default {!Cascade.delin}, the
    paper's method); the historical closed modes are the presets
    {!Cascade.delin}, {!Cascade.classic} and {!Cascade.exact}, and any
    registered strategy combination can be passed instead. *)

module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Dirvec = Dlz_deptest.Dirvec
module Ddvec = Dlz_deptest.Ddvec
module Classify = Dlz_deptest.Classify

type dep = {
  src : Access.t;  (** The source reference (a write when one exists). *)
  dst : Access.t;
  kind : Classify.kind;
  dirvec : Dirvec.t;  (** Summarized direction vector. *)
  ddvec : Ddvec.t;  (** Same vector with exact distances substituted. *)
  via : string;  (** The strategy whose verdict produced this row. *)
  degraded : (string * string) list;
      (** Faults contained while answering this pair (empty on a clean
          query); rendered as [degraded_by: <strategy> <reason>]. *)
}

type mode =
  | Delinearize  (** The paper's method (default). *)
  | Classic
      (** Ablation: direction-vector hierarchy with GCD+Banerjee on the
          unbroken equations (only for fully numeric problems; symbolic
          problems degrade to all-[*]). *)
  | ExactMode
      (** Precision ceiling: realized direction vectors from the exact
          integer solver (numeric problems within the search budget;
          everything else falls back to {!Delinearize}).  Exponential —
          for comparisons, not production. *)

val cascade_of_mode : mode -> Cascade.t
(** The preset cascade reproducing the mode's historical behavior.
    Kept, with [mode], because the perfbench harness names its cascade
    through them. *)

val summarize : self:bool -> Dirvec.t list -> Dirvec.t list
(** Greedy sound summarization of vectors of one length
    ([Invalid_argument] otherwise): two vectors are merged when every
    basic vector their join admits is covered.  The cover is the basic
    vectors that are members of the input, and for a [self] pair the
    all-[=] identity; a non-basic member such as [( * )] covers nothing,
    so [(<)] and [( * )] stay two rows. *)

val deps_of_results : (Engine.pair * Strategy.result) list -> dep list
(** The dependence rows of answered pairs (input dependences and
    identity-only self pairs are omitted), in the pairs' order.  Pure:
    no query is asked, so the rows and any other view built from the
    same {!Engine.query_all} list agree pair for pair. *)

val deps_of_accesses :
  ?cascade:Cascade.t -> ?budget:Dlz_base.Budget.t ->
  ?pool:Dlz_base.Pool.t ->
  env:Assume.t -> Access.t list -> dep list
(** All dependences among the given accesses, in source order:
    {!deps_of_results} of {!Engine.query_all}.

    With [pool] the pair queries fan out over its domains (the pool is
    not shut down).  The output is deterministic: for any pool width
    it is identical to the serial result. *)

val deps_of_program :
  ?cascade:Cascade.t -> ?budget:Dlz_base.Budget.t ->
  ?pool:Dlz_base.Pool.t ->
  ?env:Assume.t -> Dlz_ir.Ast.program -> dep list
(** Extracts accesses (the program must be normalized) and analyzes
    them. *)

val pp_dep : Format.formatter -> dep -> unit
