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

(** {2 Lattice masks}

    One vector over [n] levels as [⌈n/21⌉] ints (one for [n ≤ 21]), 3
    bits per level with level 1 in the most significant bits; a level
    holds the set of relations its direction admits, one bit each for
    [<] (4), [=] (2) and [>] (1), so the levels of [( *, =)] hold
    [0b111] and [0b010].  Unused fields are 0.  A join is [lor] and
    containment [land], int for int, and the basic vectors a vector
    admits are its choices of one bit per level.  The views of a
    query's answer, the dependence rows ([Analyze]) and the
    vectorizer's graph edges ([Depgraph]), work on vectors in this
    form. *)

module Mask : sig
  type vec := t

  val pack : vec -> int array
  val unpack : int -> int array -> vec
  (** [unpack n w] is the vector over [n] levels that [w] packs. *)

  val get : int array -> int -> dir
  (** [get w l]: level [l]'s (1-based) direction. *)

  val join : int array -> int array -> int array
  (** The join of vectors of one length: [lor], int for int. *)

  val leq : int array -> int array -> bool
  (** [leq a b] iff every level of [a] is contained in [b]'s. *)

  val equal : int array -> int array -> bool

  val basics : cap:int -> int -> int array -> int
  (** [basics ~cap n w] is the number of basic vectors [w] admits over
      its [n] levels (the product of its levels' bit counts), or [cap]
      when that is more; [cap ≤ max_int / 3]. *)

  val iter_basics : (int array -> unit) -> int -> int array -> unit
  (** [iter_basics f n w] applies [f] to each basic vector [w] admits
      over its [n] levels, in {!Dirvec.compare} order; every call may
      get the same array, overwritten. *)

  val lead : int -> int array -> int
  (** [lead n w]: the first of the [n] levels (1-based) that is not
      [=], or 0. *)

  val reverse : int -> int
  (** {!Dirvec.reverse} of an int: [<] and [>] swap in every level. *)

  val rank : int -> int
  (** An int whose [Int.compare] order, int by int, is
      {!Dirvec.compare} order among basic vectors of one length.
      [rank (rank x) = x]. *)
end

(** {2 Packed sets}

    A set of direction vectors over [n] levels, as one sorted,
    deduplicated [int array]: each vector is [⌈n/21⌉] ints (one int
    for [n ≤ 21]), 3 bits per level with level 1 in the most
    significant bits, each level coded by its {!dir}'s constructor
    index ([Lt] = 0 … [Star] = 6).  Comparing the ints orders the
    vectors as {!compare} does, so {!Set.to_list} is sorted by
    {!compare}.  The solvers of the delinearize strategy keep their
    direction vectors in this form, and meet them, without building a
    list, an option or an array per vector. *)

module Set : sig
  type vec := t
  type t

  val all_star : int -> t
  (** The one vector [( *, …, * )]. *)

  val empty : int -> t

  val singleton : vec -> t
  (** The one vector, over its length's levels. *)

  val cardinal : t -> int
  val is_empty : t -> bool
  val equal : t -> t -> bool

  val meet : t -> t -> t
  (** Every non-empty pairwise {!Dirvec.meet} of two sets over the same
      levels (else [Invalid_argument]): the direction vectors two
      conjoined constraints admit together.  Meeting the set that is
      only [( *, …, * )] returns the other set itself. *)

  val to_list : t -> vec list
  (** The vectors, sorted by {!Dirvec.compare}. *)

  (** {3 Building a set} *)

  type builder

  val builder : int -> builder
  (** An empty set under construction, over the given number of
      levels. *)

  val add : builder -> vec -> unit
  (** Adds one vector (a duplicate is dropped); [Invalid_argument] if
      its length is not the builder's levels.  Vectors added in
      {!Dirvec.compare} order cost one comparison each. *)

  val count : builder -> int
  (** The number of distinct vectors added so far; they occupy
      positions [0] to [count - 1] in sorted order. *)

  val add_copies : builder -> from:int -> upto:int -> level:int -> dir -> unit
  (** [add_copies b ~from ~upto ~level d] adds a copy of each vector at
      positions [from] to [upto - 1] with its level [level] (1-based)
      set to [d]. *)

  val finish : builder -> t
end
