(** Numeric dependence equations.

    The constrained equation (5) of the paper:
    [c0 + c1*z1 + ... + cn*zn = 0] with [zk ∈ [0, Zk]].  Each variable
    remembers which reference instance it came from ([`Src] or [`Dst])
    and its loop level, so that direction-vector reasoning can pair the
    two instances of a common loop. *)

type var = {
  v_name : string;  (** Display name, e.g. ["i1"]. *)
  v_ub : int;  (** The variable ranges over [[0, v_ub]]. *)
  v_side : [ `Src | `Dst ];
  v_level : int;  (** 1-based loop depth in its own nest. *)
}

type term = { coeff : int; var : var }
type t = { c0 : int; terms : term list }

val var : ?side:[ `Src | `Dst ] -> ?level:int -> string -> int -> var
(** [var name ub] builds a variable; [side] defaults to [`Src], [level]
    to [0] (unpaired). *)

val same_var : var -> var -> bool
(** Identity: same side and level (names are display only). *)

val make : int -> (int * var) list -> t
(** [make c0 terms] normalizes: merges duplicate variables, drops zero
    coefficients.  Raises [Invalid_argument] on a negative upper bound
    (an empty iteration space must be handled by the caller). *)

val nvars : t -> int
val coeffs : t -> int list

val lhs_interval : t -> Dlz_base.Ivl.t
(** Range of [c0 + Σ ck*zk] over the box. *)

val has_side : t -> level:int -> [ `Src | `Dst ] -> bool
(** Whether a term with that level and side occurs.  Allocation-free
    (so are the two finders below — the hot tests use them instead of
    the consing {!common_pairs} view). *)

val find_coeff : t -> level:int -> [ `Src | `Dst ] -> int
(** Coefficient of the (level, side) term; [0] when absent. *)

val find_ub : t -> level:int -> [ `Src | `Dst ] -> int
(** Bound of the (level, side) term's variable; [0] when absent. *)

val eval : t -> (var * int) list -> int
(** Value of the left-hand side under an assignment (variables matched
    with {!same_var}; missing variables default to 0). *)

val holds : t -> (var * int) list -> bool

val assignments : t -> (var * int) list Seq.t
(** All points of the box, for brute-force ground truth in tests.  The
    box size must be modest. *)

val common_pairs : t -> (int * (int * var) option * (int * var) option) list
(** For each loop level that occurs on either side, the level together
    with the [`Src] and [`Dst] terms at that level (coefficient 0 terms
    are absent). *)

val pp : Format.formatter -> t -> unit
(** E.g. [i1 + 10*j1 - i2 - 10*j2 - 5 = 0 ; i1,i2 in [0,4], j1,j2 in [0,9]]. *)

val to_string : t -> string
