(** Wolf–Lam range vectors [WL91] (paper §2, "Non-direction vector
    constraints").

    "Wolf and Lam proposed [a] generalization of distance and direction
    vectors in which each element of their vector is a range of
    integers": component [i] is an interval containing every realized
    difference [β_i - α_i].  Ranges subsume direction vectors
    ([< ↦ [1, ∞)]) and distance vectors ([d ↦ [d, d]]); the paper notes
    such representations are more precise but costlier — here they cost
    one exact query per level (small problems) or fall out of the
    delinearization pieces for free. *)

type t = Dlz_base.Ivl.t array
(** One interval per common loop, outermost first.  An unbounded side is
    clamped to the loop's trip range ([β - α ∈ [-ub, ub]] always). *)

val of_exact : common_ubs:int array -> Depeq.t list -> t option
(** Exact per-level ranges via the integer solver; [None] when the
    search budget is exceeded.  All-empty when the dependence is empty;
    a level whose instances are unpaired in the equations ranges over
    the full [[-ub, ub]]. *)

val of_directions : common_ubs:int array -> Dirvec.t list -> t
(** Conservative ranges from surviving direction vectors: level [i]
    ranges over the union of the directions' admitted deltas clamped to
    [[-ub_i, ub_i]]. *)

val with_distances : t -> (int * int) list -> t
(** Refines levels whose exact distance is known to point intervals. *)

val subsumes : t -> t -> bool
(** [subsumes a b] iff [a] admits every delta [b] admits, pointwise. *)

val to_string : t -> string
(** Printed like [([0,4], [1,1])]. *)
