(** Closed integer intervals.

    The delinearization algorithm's running [smin]/[smax] pair and the
    Banerjee bounds are interval computations; this module makes them
    explicit and overflow-checked.  The empty interval is represented
    distinctly so that infeasible direction constraints propagate. *)

type t
(** A (possibly empty) closed interval of integers. *)

val make : int -> int -> t
(** [make lo hi] is [[lo, hi]], empty when [lo > hi]. *)

val empty : t
val zero : t
(** The singleton [[0, 0]]. *)

val point : int -> t
(** [point v] is the singleton [[v, v]]. *)

val is_empty : t -> bool
val lo : t -> int
(** Lower bound; raises [Invalid_argument] on the empty interval. *)

val hi : t -> int
(** Upper bound; raises [Invalid_argument] on the empty interval. *)

val mem : int -> t -> bool
val contains_zero : t -> bool

val add : t -> t -> t
(** Minkowski sum. *)

val neg : t -> t

val scale : int -> t -> t
(** [scale c iv] is [{ c*x | x in iv }]'s hull (exact for intervals). *)

val join : t -> t -> t
(** Convex hull of the union. *)

val inter : t -> t -> t

val width : t -> int
(** [width iv] is [hi - lo]; [-1] for the empty interval. *)

val max_abs : t -> int
(** [max_abs iv] is [max |lo| |hi|]; raises [Invalid_argument] on the
    empty interval. *)

val shift : int -> t -> t
(** [shift c iv] translates [iv] by [c]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Mutable interval accumulator for the per-query hot paths.

    The classic tests fold a scaled box per equation term; doing that
    with immutable {!t} values allocates one block per step.  An
    {!Acc.acc} is created once (typically per domain) and reused: every
    combinator here is allocation-free, and {!Acc.to_ivl} converts back
    to an immutable interval only when a caller needs one. *)
module Acc : sig
  type acc

  val create : unit -> acc
  (** A fresh accumulator holding the point [0]. *)

  val set_point : acc -> int -> unit
  (** Reset to the singleton [[v, v]]. *)

  val add_scaled : acc -> int -> int -> unit
  (** [add_scaled a c ub] adds [c * [0, ub]] (Minkowski), the
      lhs-interval step.  Requires [ub >= 0]; empty absorbs. *)

  val add_ivl : acc -> t -> unit
  (** Minkowski-add an immutable interval (empty absorbs). *)

  val contains_zero : acc -> bool
  val to_ivl : acc -> t
end
