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

module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Ddvec = Dlz_deptest.Ddvec
module Problem = Dlz_deptest.Problem
module Classify = Dlz_deptest.Classify

type pair_result = {
  verdict : Verdict.t;
  dirvecs : Dirvec.t list;  (** Basic vectors over the common loops. *)
  distances : (int * Poly.t) list;
      (** Distances proven constant; symbolic polynomials allowed. *)
  decided_by : string;  (** Provenance: the strategy that decided. *)
  degraded : (string * string) list;
      (** Contained faults, as [(strategy, reason)] — see
          {!Strategy.result}. *)
}

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

val vectors :
  ?cascade:Cascade.t -> ?budget:Dlz_base.Budget.t -> env:Assume.t ->
  Problem.t -> pair_result
(** Direction vectors for one problem, answered through the memoized
    engine query path. *)

val decomposition : Dirvec.t -> Dirvec.t list
(** All basic direction vectors admitted by a vector (3^k worst case for
    k [*] components). *)

val summarize : self:bool -> Dirvec.t list -> Dirvec.t list
(** Greedy sound summarization: vectors are merged when the join's
    decomposition is covered by the set ([self] pairs implicitly cover
    the all-[=] identity vector). *)

val deps_of_accesses :
  ?cascade:Cascade.t -> ?budget:Dlz_base.Budget.t ->
  ?jobs:int -> ?pool:Dlz_base.Pool.t -> ?chunk:int ->
  env:Assume.t -> Access.t list -> dep list
(** All dependences among the given accesses (input dependences and
    identity-only self pairs are omitted), in source order.  Pair
    enumeration is {!Engine.map_pairs} — the same path the vectorizer's
    dependence graph uses.

    [jobs] (default 1) is the number of domains the pair queries fan
    out over; [0] means [Domain.recommended_domain_count ()].  An
    explicit [pool] takes precedence and is not shut down.  [chunk]
    overrides the auto-tuned candidates-per-chunk deal size.  The
    output is deterministic: for any job count and chunk size it is
    identical to the serial result. *)

val deps_of_program :
  ?cascade:Cascade.t -> ?budget:Dlz_base.Budget.t ->
  ?jobs:int -> ?pool:Dlz_base.Pool.t -> ?chunk:int ->
  ?env:Assume.t -> Dlz_ir.Ast.program -> dep list
(** Extracts accesses (the program must be normalized) and analyzes
    them. *)

val pp_dep : Format.formatter -> dep -> unit
