(** Statement-level dependence graph.

    Nodes are assignment statements; each edge carries the direction
    vector of one dependence, oriented from the instance that executes
    first to the one that executes later (lexicographically negative
    vectors are flipped; all-[=] vectors are oriented by textual order,
    reads before the write inside one statement).  This is the graph the
    Allen–Kennedy vectorizer consumes.

    Pair enumeration and dependence queries go through the shared
    {!Dlz_engine.Engine} path — the same pairs, orientation and memoized
    cascade answers the whole-program analyzer uses. *)

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

val build :
  ?cascade:Dlz_engine.Cascade.t ->
  ?budget:Dlz_base.Budget.t ->
  ?jobs:int ->
  ?pool:Dlz_base.Pool.t ->
  ?chunk:int ->
  ?env:Assume.t ->
  Dlz_ir.Ast.program ->
  t
(** Analyzes a normalized program.  Input (read-read) dependences are
    ignored; a same-statement all-[=] vector (the read feeding the write
    of one assignment) carries no constraint and is dropped.

    [jobs]/[pool]/[chunk] parallelize the pair queries exactly as in
    {!Dlz_engine.Analyze.deps_of_accesses}; the edge list is sorted, so
    the graph is identical for any job count or chunk size. *)

val edges_at_level : t -> int -> edge list
(** Edges not carried by loops outer than [level]: carrying level
    [>= level]. *)

val pp : Format.formatter -> t -> unit
