(** Assumption environments and sign decisions for polynomials.

    The symbolic delinearization algorithm must answer questions like
    "is [N^2 - N] nonnegative?" under assumptions such as [N >= 2]
    (derived, as in the paper, from declarations: an array bound of
    [N^3 - 1] implies [N >= 1]).  An environment maps symbols to integer
    lower bounds.  Decisions are made by rewriting each symbol [s] as
    [lb(s) + t] with a fresh nonnegative [t] and inspecting the
    coefficients of the result — a sound, incomplete procedure that
    resolves every comparison the paper's §4 example needs, and returns
    {!sign-unknown} otherwise (the algorithm then conservatively declines
    to split).

    A linear [p] (every term of degree at most 1) is shifted once per
    decision, in one pass over its terms that builds nothing: {!sign}
    and {!abs} read [p > 0], [p < 0] and [p >= 0] off one summary (the
    signs of the shifted non-constant coefficients and the shifted
    constant).  Any other [p], or one whose summary would reach
    [min_int] or overflow, is decided one question at a time, as
    [p - 1 >= 0], [-p - 1 >= 0] or [p >= 0] of the polynomial rewritten
    through {!Poly.subst}.  Either way the answers, and the
    {!Dlz_base.Intx.Overflow}s raised, are those of the rewriting
    procedure. *)

type t
(** An assumption environment. *)

type sign = Negative | Zero | Positive | Unknown

val empty : t
(** No assumptions: every symbol only known to be an integer. *)

val assume_ge : string -> int -> t -> t
(** [assume_ge s b env] adds [s >= b], strengthening any previous bound
    on [s]. *)

val assume_nonneg : Poly.t -> t -> t
(** Best-effort recording of the fact [p >= 0]: when [p] is [c·s + k]
    with [c > 0] (a single linear symbol), adds [s >= ceil(-k/c)];
    other shapes are ignored.  Used to exploit non-emptiness of loop
    ranges, e.g. a normalized bound of [N-2] yields [N >= 2] — the way
    the paper derives [N >= 1] from a declaration bound of [N^3-1]. *)

val lower_bound : string -> t -> int option
val bindings : t -> (string * int) list

val is_nonneg : t -> Poly.t -> bool
(** [is_nonneg env p]: provably [p >= 0] under [env]? *)

val is_pos : t -> Poly.t -> bool
(** Provably [p >= 1]?  (Integer-valued, so [p > 0] iff [p >= 1].) *)

val is_nonpos : t -> Poly.t -> bool
val is_neg : t -> Poly.t -> bool

val sign : t -> Poly.t -> sign
(** Best provable sign information for [p]. *)

val lt : t -> Poly.t -> Poly.t -> bool
(** [lt env p q]: provably [p < q]? *)

val le : t -> Poly.t -> Poly.t -> bool

val abs : t -> Poly.t -> Poly.t option
(** [abs env p] is [Some |p|] when the sign of [p] is provable. *)

val max2 : t -> Poly.t -> Poly.t -> Poly.t option
(** [max2 env p q] is the provable pointwise maximum of [p] and [q], when
    one provably dominates the other. *)

val sample : t -> ?extra:int -> string list -> (string * int) list
(** [sample env syms ~extra] instantiates each symbol at its lower bound
    plus [extra] (default 0), defaulting absent bounds to [extra].
    Used by tests to cross-check symbolic decisions numerically. *)

val pp : Format.formatter -> t -> unit
