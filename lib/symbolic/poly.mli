(** Multivariate integer polynomials in canonical form.

    Symbolic delinearization (paper §4) manipulates coefficients, loop
    bounds and gcds that are loop-invariant integer expressions such as
    [N*N + N].  We represent them as polynomials over named symbols with
    integer coefficients, kept canonical (sorted monomials, no zero
    coefficients) so that structural equality is semantic equality. *)

type t
(** A canonical polynomial. *)

val zero : t
val one : t
val const : int -> t
val sym : string -> t
val monomial : int -> Monomial.t -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val scale : int -> t -> t
val pow : t -> int -> t
val sum : t list -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val is_zero : t -> bool

val to_const : t -> int option
(** [to_const p] is [Some c] iff [p] is the constant polynomial [c]. *)

val const_value : t -> int
(** The value of a constant polynomial; raises [Not_found] on any
    other.  Allocation-free. *)

val terms : t -> (int * Monomial.t) list
(** Terms in descending monomial order; coefficients are nonzero. *)

val fold : (Monomial.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f p init] folds [f m c] over the terms [c·m] of [p] in
    {e ascending} monomial order (the constant term first, then the
    degree-1 terms by symbol name), without building a list. *)

val degree : t -> int
(** Total degree; the zero polynomial has degree [-1] by convention. *)

val vars : t -> string list
(** Symbols occurring, sorted, without duplicates. *)

val eval : (string -> int) -> t -> int
(** Overflow-checked evaluation. *)

val subst : string -> t -> t -> t
(** [subst s q p] replaces every occurrence of symbol [s] in [p] by the
    polynomial [q]. *)

val content : t -> int
(** Gcd of the integer coefficients (nonnegative; 0 for the zero
    polynomial). *)

val monomial_content : t -> Monomial.t
(** Greatest monomial dividing every term ([unit] for zero). *)

val gcd_simple : t -> t -> t
(** [gcd_simple p q] is the "simple" gcd used by symbolic
    delinearization: the integer gcd of the contents times the gcd of the
    monomial contents.  It divides both arguments and coincides with the
    true gcd whenever either argument is a single term (the case arising
    from linearized subscripts, e.g. [gcd N (N^2) = N]).
    [gcd_simple p zero = abs_content p * monomial_content p]. *)

val divmod_by_term : t -> t -> (t * t) option
(** [divmod_by_term p g], for [g] a single nonzero term [c*m], is
    [Some (q, r)] where [p = q*g + r] and [r] collects exactly the terms
    of [p] not divisible by [c*m]; [None] when [g] is not a single term.
    This is the symbolic counterpart of [c0 mod g_k] in the algorithm
    (paper §4's [(N^2+N) mod N^2 = N]). *)

val leading_sign : t -> int
(** Sign of the leading (highest-monomial) coefficient; 0 for zero. *)

val pp : Format.formatter -> t -> unit
(** Prints e.g. [N^2 + N - 2]; the zero polynomial prints as [0]. *)

val to_string : t -> string
