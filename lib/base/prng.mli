(** Deterministic splittable PRNG (splitmix64).

    The synthetic corpus generator and the benchmark workload generators
    must be reproducible across runs and platforms, so they use this
    self-contained generator instead of [Random]. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] is a fresh generator. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [[0, bound-1]]; requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [[lo, hi]]; requires [lo <= hi]. *)

val bool : t -> bool

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val split : t -> t
(** [split g] derives an independent generator and advances [g]. *)
