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

val of_graph : Dlz_ir.Ast.program -> Depgraph.t -> loop_report list
(** One entry per loop of the (normalized) program, in source order,
    read off the program's dependence graph: a loop is serial when an
    edge between two statements of its body is carried at its level.
    Pure: no query is asked. *)

val report :
  ?cascade:Dlz_engine.Cascade.t ->
  ?budget:Dlz_base.Budget.t ->
  ?pool:Dlz_base.Pool.t ->
  ?env:Dlz_symbolic.Assume.t ->
  Dlz_ir.Ast.program ->
  loop_report list
(** {!of_graph} of {!Depgraph.build}: one query pass over the program.
    [pool] parallelizes that pass. *)

val fully_parallel : loop_report list -> bool
(** Every loop parallel (the verdict the corpus ablation counts). *)
