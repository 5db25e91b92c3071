(** Allen–Kennedy loop distribution and vectorization [AK87].

    [codegen(R, k)]: compute the SCCs of the dependence graph restricted
    to region [R] and to edges not carried by loops outer than [k]; emit
    them in topological order; a cyclic component becomes a sequential
    [DO] at level [k] around the code generated for level [k+1]; an
    acyclic statement is emitted in FORTRAN-90-style array syntax with
    all its remaining loops vectorized.  This is the substrate standing
    in for the paper's host vectorizer VIC: better direction vectors
    from delinearization directly translate into more vectorized
    dimensions. *)

type plan = {
  stmt_id : int;
  stmt_name : string;
  seq_levels : int list;  (** Loop levels emitted sequentially. *)
  vec_levels : int list;  (** Loop levels vectorized. *)
  interchangeable : int list;
      (** Sequential levels whose component carries no dependence at
          exactly that level — the cycle comes from deeper levels only,
          so interchanging this loop inward (an extension the basic
          Allen–Kennedy codegen does not perform) could expose more
          vector dimensions. *)
}

type result = {
  text : string;  (** The transformed program, pseudo-FORTRAN-90. *)
  plans : plan list;
  graph : Depgraph.t;
}

val run :
  ?cascade:Dlz_engine.Cascade.t ->
  ?env:Dlz_symbolic.Assume.t ->
  Dlz_ir.Ast.program ->
  result
(** Vectorizes a normalized program (run {!Dlz_passes} first).
    [cascade] selects the dependence tester (delinearization vs the
    classic baseline) — the E7/ablation comparisons flip it. *)
