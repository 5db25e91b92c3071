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

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
