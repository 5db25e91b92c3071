(** Direction vectors and their lattice.

    A direction vector assigns to each common loop a relation between the
    source iteration [α] and the sink iteration [β] (paper §2).  The
    elements form the standard lattice

    {v
              *
           /  |  \
          ≤   ≠   ≥
         / \ / \ / \
        <   =   >
    v}

    with meet (intersection of solution sets) possibly empty. *)

type dir = Lt | Eq | Gt | Le | Ge | Ne | Star

type t = dir array
(** One element per common loop, outermost first. *)

val all_star : int -> t

val meet_dir : dir -> dir -> dir option
(** Lattice meet; [None] is the empty relation. *)

val join_dir : dir -> dir -> dir
(** Least upper bound (used when summarizing dependences). *)

val leq_dir : dir -> dir -> bool
(** [leq_dir a b] iff relation [a] is contained in relation [b]. *)

val meet : t -> t -> t option
(** Pointwise meet; [None] if any component is empty.  Vectors of unequal
    length meet on their common prefix, keeping the longer tail (used
    when a separated equation constrains only some levels). *)

val meet_sets : t list -> t list -> t list
(** Every non-empty pairwise {!meet} of the two sets, sorted and
    deduplicated: the direction vectors two conjoined constraints
    admit together. *)

val join : t -> t -> t
(** Pointwise join of equal-length vectors. *)

val refinements : dir -> dir list
(** Immediate children used by hierarchy testing:
    [refinements Star = [Lt; Eq; Gt]], a basic direction refines to
    itself, and [≤ ≠ ≥] refine to their two basic children. *)

val is_basic : dir -> bool
(** [<], [=] or [>]. *)

val admits : dir -> int -> bool
(** [admits d delta] iff a difference [β - α = delta] satisfies [d]. *)

val of_delta : int -> dir

val plausible : t -> bool
(** A dependence whose leading non-[=] direction is [>] (or [≥]-only…)
    is really the reversed dependence; [plausible] is [true] when the
    vector has a lexicographically nonnegative interpretation, i.e. its
    first component that excludes [=] and [<] is not reached before a
    [<]-admitting one.  Concretely: scanning left to right, the vector is
    plausible unless a component admitting only [>] appears while all
    earlier components admit only [=]. *)

val reverse : t -> t
(** Componentwise reversal ([<] ↔ [>]), the direction vector of the
    dependence read in the opposite direction. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val dir_to_string : dir -> string
val to_string : t -> string
(** Printed like ( *, <, = ). *)

val pp : Format.formatter -> t -> unit
