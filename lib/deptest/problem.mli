(** Dependence problems: everything known about one pair of references.

    A problem packages the two accesses, their common loops, and one
    (symbolic) dependence equation per analyzable subscript position —
    the system (2) of the paper.  Its integer form, decided once when
    the problem is built, feeds the classic tests, the exact solvers
    and the cache key. *)

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

type t = private {
  src : Access.t;
  dst : Access.t;
  n_common : int;
  common_ubs : Poly.t list;  (** Bounds of the common loops, outermost first. *)
  equations : Symeq.t list;
  opaque_dims : int;
      (** Subscript positions skipped because either side was
          unanalyzable; each skipped dimension weakens precision but
          never soundness. *)
  numeric : numeric option;
      (** The integer form of the fields above, decided once when the
          problem is built: [Some] exactly when every coefficient,
          constant and bound is an integer and every variable bound is
          nonnegative.  Its equations are {!Symeq.to_numeric} of
          [equations], in order, and its bounds [common_ubs] as ints.
          [None] marks a symbolic (or negative-bound) problem. *)
}
(** Private: a problem is built by {!make}, {!of_accesses} or
    {!synthetic}, so [numeric] always agrees with the symbolic fields. *)

val make :
  src:Access.t ->
  dst:Access.t ->
  n_common:int ->
  common_ubs:Poly.t list ->
  opaque_dims:int ->
  Symeq.t list ->
  t
(** A problem over the given equations, with its integer form. *)

val of_accesses : Access.t -> Access.t -> t option
(** [None] when the accesses name different arrays (no dependence
    possible through distinct storage — aliasing must have been resolved
    by the linearization pass beforehand). *)

val instantiate : (string -> int) -> t -> numeric
val numeric_of_equations : n_common:int -> common_ubs:int array -> Depeq.t list -> numeric

val synthetic : numeric -> t
(** Lifts a numeric problem into a full [t] with placeholder accesses
    (constant-polynomial coefficients and bounds), so generated
    equations can be fed to any strategy.  What round-trips is the
    integer form, up to {!Depeq.make}'s normalization:
    [(synthetic np).numeric] is [Some np'], where [np'] is [np] with
    each equation rebuilt by {!Depeq.make} from its own terms —
    duplicate variables merged into their first occurrence, zero
    coefficients dropped, the remaining terms in their order — unless
    a term left after that merge has a negative bound, when it is
    [None]. *)

(** Flat canonical encoding of a problem into a reusable byte buffer.

    Packs the canonical form the memo cache keys on — terms sorted,
    global sign fixed, coefficients divided by their gcd, equations
    sorted by their encoded bytes — from the integer form
    (the [numeric] field) with no intermediate list or option structures.
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
      encoding; [false] when [p] has no integer form ([numeric] is
      [None]) or its normalization overflows — the problems the cache
      treats as uncacheable. *)

  val contents : buf -> Bytes.t
  (** The backing buffer; valid up to {!length} until the next
      {!encode}.  Do not mutate. *)

  val length : buf -> int
end
