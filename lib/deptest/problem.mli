(** Dependence problems: everything known about one pair of references.

    A problem packages the two accesses, their common loops, and one
    (symbolic) dependence equation per analyzable subscript position —
    the system (2) of the paper.  Numeric projections feed the classic
    tests and the exact solver. *)

module Poly = Dlz_symbolic.Poly
module Access = Dlz_ir.Access

type t = {
  src : Access.t;
  dst : Access.t;
  n_common : int;
  common_ubs : Poly.t list;  (** Bounds of the common loops, outermost first. *)
  equations : Symeq.t list;
  opaque_dims : int;
      (** Subscript positions skipped because either side was
          unanalyzable; each skipped dimension weakens precision but
          never soundness. *)
}

type numeric = {
  n_common : int;
  common_ubs : int array;
  eqs : Depeq.t list;
  opaque_dims : int;
}

val of_accesses : Access.t -> Access.t -> t option
(** [None] when the accesses name different arrays (no dependence
    possible through distinct storage — aliasing must have been resolved
    by the linearization pass beforehand). *)

val to_numeric : t -> numeric option
(** Defined when all coefficients and bounds are integer constants. *)

val instantiate : (string -> int) -> t -> numeric
val numeric_of_equations : n_common:int -> common_ubs:int array -> Depeq.t list -> numeric

val synthetic : numeric -> t
(** Lifts a numeric problem into a full [t] with placeholder accesses
    (constant-polynomial coefficients and bounds), so generated
    equations can be fed to any strategy.  Round-trips:
    [to_numeric (synthetic np)] re-yields [np] up to term order. *)

(** Flat canonical encoding of a problem into a reusable byte buffer.

    Packs the same canonical form the memo cache keys on — terms
    sorted, global sign fixed, coefficients divided by their gcd,
    equations sorted by their encoded bytes — computed directly from
    the symbolic problem with no intermediate {!numeric}/list/option
    structures.  Every int (counts, bounds, constants, coefficients,
    levels, sides, name lengths) is a zigzag varint
    ({!Dlz_base.Varint}), one or two bytes for the values keys usually
    hold; the encoding is prefix-free, so two problems get the same
    bytes exactly when their canonical forms are equal.  A buffer is
    meant to be long-lived (one per domain): after warm-up,
    {!Keybuf.encode} allocates nothing, whatever the number of
    equations, which is what makes a memo cache {e hit}
    allocation-free. *)
module Keybuf : sig
  type buf

  val create : unit -> buf

  val encode : buf -> t -> bool
  (** [encode kb p] replaces [kb]'s contents with [p]'s canonical
      encoding; [false] when [p] has no canonical numeric form (some
      coefficient or bound is symbolic, a bound is negative, or
      normalization overflows) — exactly the problems {!to_numeric}
      rejects, which the cache treats as uncacheable. *)

  val contents : buf -> Bytes.t
  (** The backing buffer; valid up to {!length} until the next
      {!encode}.  Do not mutate. *)

  val length : buf -> int
end

val pp : Format.formatter -> t -> unit
