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

val fold_levels :
  free:('a -> int -> int -> 'a) ->
  pair:('a -> int -> int -> int -> int -> int -> 'a) ->
  sink:('a -> int -> int -> 'a) ->
  t ->
  'a ->
  'a
(** [fold_levels ~free ~pair ~sink eq init] walks [eq]'s terms in order
    and pairs the source and sink instances of each loop level: the
    one pairing rule the Banerjee and GCD tests and the hierarchy's
    tables share.  A level-0 term [c*z], [z ∈ [0, ub]], goes to
    [free acc c ub].  Each level [l ≥ 1] goes once to
    [pair acc l a ub_a b ub_b], [a*α + b*β] with [α ∈ [0, ub_a]] the
    source instance and [β ∈ [0, ub_b]] the sink, at its [`Src] term,
    or at its [`Dst] term when the source is absent; an absent side
    counts as coefficient 0 with bound [max_int].  Each [`Dst] term at
    a level [l ≥ 1] also goes to [sink acc l b] at its own position
    (after [pair] when that sits there): the GCD test folds a sink's
    own coefficient where it stands, so that an overflow fires where
    a fold in term order would raise it.  Allocation-free itself. *)

val eval : t -> (var * int) list -> int
(** Value of the left-hand side under an assignment (variables matched
    with {!same_var}; missing variables default to 0). *)

val holds : t -> (var * int) list -> bool

val assignments : t -> (var * int) list Seq.t
(** All points of the box, for brute-force ground truth in tests.  The
    box size must be modest. *)

val pp : Format.formatter -> t -> unit
(** E.g. [i1 + 10*j1 - i2 - 10*j2 - 5 = 0 ; i1,i2 in [0,4], j1,j2 in [0,9]]. *)

val to_string : t -> string
