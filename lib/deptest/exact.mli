(** Exact integer solver for systems of dependence equations.

    A branch-and-bound search over the iteration box with interval and
    gcd pruning.  This is the "integer programming" the paper's fast
    tests approximate; it provides ground truth for the test suite, the
    exact baseline for the E8 cost benches, and exact direction/distance
    sets for small problems.  Complexity is exponential in the worst
    case — callers control the budget with [max_nodes]. *)

type outcome = Feasible of (Depeq.var * int) list | Infeasible | Unknown
(** [Unknown] when the node budget ran out. *)

val solve :
  ?budget:Dlz_base.Budget.t ->
  ?max_nodes:int -> ?extra_ok:((Depeq.var * int) list -> bool) ->
  Depeq.t list -> outcome
(** [solve eqs] decides whether the conjunction of the equations (over
    the union of their variables, identified with {!Depeq.same_var}) has
    an integer point in the box.  [extra_ok] filters witnesses (used to
    impose direction constraints); it must be monotone in the sense that
    it only inspects the final full assignment.  Default [max_nodes] is
    [1_000_000]. *)

val test : ?budget:Dlz_base.Budget.t -> ?max_nodes:int -> Depeq.t list -> Verdict.t
(** [Independent] iff {!solve} says [Infeasible]; [Unknown] maps to
    [Dependent]. *)

val count_solutions : ?limit:int -> Depeq.t list -> int
(** Number of integer points (stopping at [limit], default 1_000_000);
    brute-force enumeration guarded by the same pruning. *)

val direction_vectors :
  ?budget:Dlz_base.Budget.t -> n_common:int -> Depeq.t list -> Dirvec.Set.t
(** The exact set of basic direction vectors over the first [n_common]
    levels realized by integer solutions.  Exponential; small problems
    only.  Raises {!Dlz_base.Budget.Exhausted} when the budget runs out
    — a partial set would read as proven independence. *)

val distance_set :
  ?budget:Dlz_base.Budget.t -> level:int -> Depeq.t list -> int list option
(** All values of [β_level - α_level] over the solutions (levels where
    both instances occur in the equations), sorted; [None] when the
    search budget is exceeded. *)

val level_values :
  ?budget:Dlz_base.Budget.t ->
  level:int -> side:[ `Src | `Dst ] -> Depeq.t list -> int list option
(** All values taken by the given instance variable over the solutions;
    [Some []] when the variable does not occur in the equations (it is
    unconstrained), [None] on budget exhaustion. *)
