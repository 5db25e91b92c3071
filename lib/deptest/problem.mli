(** Dependence problems: everything known about one pair of references.

    A problem packages the two accesses and the system (2) of the
    paper over their common loops, one equation per analyzable
    subscript position, in exactly one form decided when it is built:
    integer, or polynomial where §4's symbolic sizes come in. *)

module Poly = Dlz_symbolic.Poly
module Access = Dlz_ir.Access

type numeric = {
  n_common : int;
  common_ubs : int array;
  eqs : Depeq.t list;
  opaque_dims : int;
}
(** The integer form of a problem: the numeric system the classic
    tests, the exact solvers and the cache key read. *)

type form =
  | Numeric of numeric
      (** Every coefficient, constant and bound is an integer and every
          variable bound is nonnegative. *)
  | Symbolic of {
      n_common : int;
      common_ubs : Poly.t list;  (** Outermost first. *)
      equations : Symeq.t list;
      opaque_dims : int;
    }
(** [opaque_dims] counts the subscript positions skipped because a side
    was unanalyzable or the equation overflowed while it was built:
    less precision, never less soundness. *)

type t = private { src : Access.t; dst : Access.t; form : form }
(** Built only by {!make}, {!of_accesses} or {!synthetic}. *)

val n_common : t -> int

val make :
  n_common:int ->
  common_ubs:Poly.t list ->
  opaque_dims:int ->
  Symeq.t list ->
  t
(** A problem over placeholder accesses, with common loops
    [z1, z2, ...]: [Numeric] (the equations' {!Symeq.to_numeric}, in
    order) when the system has an integer form, else [Symbolic]. *)

val of_accesses : Access.t -> Access.t -> t option
(** [None] when the accesses name different arrays (no dependence
    possible through distinct storage — aliasing must have been resolved
    by the linearization pass beforehand).  An integer pair's equations
    come straight from the affine subscripts; only the others are built
    as polynomials and classified as by {!make}. *)

val instantiate : (string -> int) -> t -> numeric
(** A [Symbolic] form with the symbols valued, or the [Numeric] one;
    raises [Invalid_argument] if some bound evaluates negative. *)

val numeric_of_equations : n_common:int -> common_ubs:int array -> Depeq.t list -> numeric

val polynomial : form -> int * Poly.t list * Symeq.t list * int
(** [n_common], the common bounds, the equations and [opaque_dims]; a
    [Numeric] form's bounds and equations are lifted to constant
    polynomials, each equation through {!Symeq.make}. *)

val synthetic : numeric -> t
(** [Numeric np'] over {!make}'s placeholder accesses, where [np'] is
    [np] with each equation rebuilt by {!Depeq.make} from its own terms
    (duplicate variables merged into their first occurrence, zero
    coefficients dropped); but {!make} over
    {!polynomial}[ (Numeric np)] if a term has a negative bound. *)

(** Flat canonical encoding of a problem into a reusable byte buffer.

    Packs the canonical form the memo cache keys on — terms sorted,
    global sign fixed, coefficients divided by their gcd, equations
    sorted by their encoded bytes — from the [Numeric] form, with no
    intermediate list or option structures.
    Every int (counts, bounds, constants, coefficients, levels, sides,
    name lengths) is a zigzag varint ({!Dlz_base.Varint}), one or two
    bytes for the values keys usually hold; the encoding is
    prefix-free, so two problems get the same bytes exactly when their
    canonical forms are equal.  A buffer is meant to be long-lived (one
    per domain): after warm-up, {!Keybuf.encode} allocates nothing,
    whatever the number of equations, which is what makes a memo cache
    {e hit} allocation-free. *)
module Keybuf : sig
  type buf

  val create : unit -> buf

  val encode : buf -> t -> bool
  (** [encode kb p] replaces [kb]'s contents with [p]'s canonical
      encoding; [false] when [p]'s form is [Symbolic] or its
      normalization overflows — the problems the cache treats as
      uncacheable. *)

  val contents : buf -> Bytes.t
  (** The backing buffer; valid up to {!length} until the next
      {!encode}.  Do not mutate. *)

  val length : buf -> int
end
