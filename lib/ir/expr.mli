(** Scalar expressions of the loop-nest IR.

    Expressions cover the FORTRAN-77 / C subset the paper's fragments
    need: integer constants, scalar variables, the four arithmetic
    operators and opaque calls (e.g. [IFUN(10)], whose value "ranges over
    unknown values" and must not be linearized). *)

type binop = Add | Sub | Mul | Div

type t =
  | Const of int
  | Var of string
  | Bin of binop * t * t
  | Neg of t
  | Call of string * t list
      (** A call to an unknown function; opaque to all analyses. *)

val const : int -> t
val var : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t

val equal : t -> t -> bool

val free_vars : t -> string list
(** Scalar variables read, sorted, without duplicates (call arguments
    included). *)

val subst : string -> t -> t -> t
(** [subst v e' e] replaces every occurrence of variable [v] in [e] by
    [e']. *)

val fold_consts : t -> t
(** Bottom-up constant folding (exact integer division only: [7/2] is
    left symbolic so analyses never see C-style truncation). *)

val to_const : t -> int option
(** [to_const e] is [Some c] when [e] folds to the constant [c]. *)

val eval : (string -> int) -> t -> int
(** Full evaluation; division truncates toward zero as in FORTRAN/C.
    Raises [Division_by_zero] and [Failure] on calls. *)

val of_poly : Dlz_symbolic.Poly.t -> t
(** Renders a polynomial back into expression form. *)

val pp : Format.formatter -> t -> unit
(** Precedence-aware printing, e.g. [i+10*j+5]. *)

val to_string : t -> string
