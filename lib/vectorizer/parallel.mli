(** Per-loop parallelism report.

    The paper's opening question: "To decide whether loop iterations can
    be run in parallel or not the translator should know whether data
    are transferred between iterations or not."  A loop is parallel when
    no dependence between statements of its body is carried at its
    level.  This is the flat (DOALL) view the examples print; the
    Allen–Kennedy codegen is the transforming view. *)

type loop_report = {
  lr_var : string;  (** Loop variable. *)
  lr_level : int;  (** 1-based nesting depth. *)
  lr_path : string list;  (** Enclosing loop variables, outermost first. *)
  lr_parallel : bool;
  lr_carried : int;  (** Dependences carried at this level. *)
}

val report :
  ?cascade:Dlz_engine.Cascade.t ->
  ?budget:Dlz_base.Budget.t ->
  ?jobs:int ->
  ?pool:Dlz_base.Pool.t ->
  ?chunk:int ->
  ?env:Dlz_symbolic.Assume.t ->
  Dlz_ir.Ast.program ->
  loop_report list
(** One entry per loop of the (normalized) program, in source order.
    [jobs]/[pool]/[chunk] parallelize the underlying
    {!Depgraph.build}. *)

val fully_parallel : loop_report list -> bool
(** Every loop parallel (the verdict the corpus ablation counts). *)
