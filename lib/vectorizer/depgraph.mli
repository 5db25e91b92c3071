(** Statement-level dependence graph.

    Nodes are assignment statements; each edge carries the direction
    vector of one dependence, oriented from the instance that executes
    first to the one that executes later (lexicographically negative
    vectors are flipped; all-[=] vectors are oriented by textual order,
    reads before the write inside one statement).  This is the graph the
    Allen–Kennedy vectorizer consumes.

    Edges are a pure function of the shared {!Dlz_engine.Engine.query_all}
    answers — the same pairs, orientation and cascade results the
    whole-program analyzer turns into dependence rows. *)

module Dirvec = Dlz_deptest.Dirvec
module Assume = Dlz_symbolic.Assume

type edge = {
  e_src : int;  (** Statement id of the earlier instance. *)
  e_dst : int;
  e_vec : Dirvec.t;  (** Over the common loops of the two statements. *)
  e_level : int;
      (** Carrying level: 1-based position of the first component that
          can be [<]; [max_int] for loop-independent edges. *)
  e_kind : Dlz_deptest.Classify.kind;
}

type t = {
  nstmts : int;
  stmt_names : string array;
  edges : edge list;
}

val of_results :
  Dlz_ir.Access.t list ->
  (Dlz_engine.Engine.pair * Dlz_engine.Strategy.result) list ->
  t
(** The graph of a program's answered pairs: [accs] are its accesses
    (they name the statements), the pairs are {!Dlz_engine.Engine.query_all}
    over them.  Pure: no query is asked.  Input (read-read) dependences
    never appear among the pairs; a same-statement all-[=] vector (the
    read feeding the write of one assignment) carries no constraint and
    is dropped.  The edge list is sorted and deduplicated, so the graph
    is identical for any pool width of the query pass. *)

val build :
  ?cascade:Dlz_engine.Cascade.t ->
  ?budget:Dlz_base.Budget.t ->
  ?pool:Dlz_base.Pool.t ->
  ?env:Assume.t ->
  Dlz_ir.Ast.program ->
  t
(** {!of_results} of one query pass over a normalized program's
    accesses.  [pool] parallelizes the pass exactly as in
    {!Dlz_engine.Analyze.deps_of_accesses}. *)

val edges_at_level : t -> int -> edge list
(** Edges not carried by loops outer than [level]: carrying level
    [>= level]. *)

val pp : Format.formatter -> t -> unit
