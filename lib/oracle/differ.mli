(** The differential cross-check driver.

    Runs every registered strategy over a batch of generated cases and
    classifies each divergence from the brute-force oracle:

    - [Unsound] — the strategy claimed independence while an integer
      solution exists (or claimed direction vectors / distances some
      realized solution contradicts).  Never acceptable.
    - [Imprecise] — the strategy reported possible dependence on an
      exhaustively unsatisfiable system.  Allowed: every filter is
      conservative.
    - [Internal] — the strategy escaped the engine's fault taxonomy
      (raised an exception the cascade would not contain), or a
      witness-claiming strategy asserted solutions of an unsatisfiable
      system.

    When the oracle itself cannot decide (box too large, overflow), a
    witness from the exact backtracking solver still convicts an
    Independent claim — the strategies are cross-checked against each
    other, not only against the scan.

    With a [pool] the batch is checked by {!Dlz_base.Pool.map}; results
    land by case index, so the report is identical for any pool width. *)

type cls = Unsound | Imprecise | Internal

val cls_to_string : cls -> string
(** ["UNSOUND"] / ["IMPRECISE"] / ["INTERNAL"]. *)

type divergence = {
  d_case : string;
  d_family : string;
  d_strategy : string;
  d_class : cls;
  d_detail : string;
  d_ground : Dlz_deptest.Problem.numeric;
      (** Minimized when shrinking was on. *)
  d_replay : string;
      (** [d_ground] in the one JSON encoding of a numeric problem, the
          [problem] object the daemon's [query] verb takes
          ({!Dlz_serve.Proto.problem_to_json}); read it back with
          {!Dlz_serve.Proto.numeric_of_json}. *)
}

type tally = {
  t_checks : int;
  t_agreements : int;
  t_imprecise : int;
  t_unknown : int;
  t_faults : int;  (** Taxonomy faults contained during a run. *)
}

type report = {
  r_cases : int;
  r_tally : tally;
  r_divergences : divergence list;
      (** UNSOUND and INTERNAL only, sorted by (case, strategy). *)
}

val default_fuel : int
(** 200,000 solver steps per strategy run. *)

val default_limit : int
(** 20,000 oracle box points. *)

val run :
  ?stats:Dlz_engine.Stats.t ->
  ?pool:Dlz_base.Pool.t ->
  ?fuel:int ->
  ?limit:int ->
  ?shrink:bool ->
  Eqgen.case list ->
  report
(** [fuel] bounds each strategy run and (×4) each oracle scan; [limit]
    caps the oracle's box size in points.  [shrink] minimizes every
    UNSOUND/INTERNAL divergence with {!Shrink.minimize} before
    reporting.  With [stats], records one oracle-check per strategy run
    and one divergence counter per classification. *)

val count_class : report -> cls -> int

val report_to_string : report -> string
(** Deterministic plain-text report (same batch ⇒ byte-identical). *)
