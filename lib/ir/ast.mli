(** Abstract syntax of the structured loop-nest language.

    This IR is the common target of both front ends (mini-FORTRAN-77 and
    mini-C) and the subject of the normalization passes.  It models
    exactly what the paper's dependence framework needs: rectangular DO
    nests around assignment statements over scalar and array variables,
    plus the declaration forms (DIMENSION, EQUIVALENCE, COMMON) that
    drive linearization. *)

type kind = Real | Integer

type dim = { lo : Expr.t; hi : Expr.t }
(** One array dimension, [lo:hi] in FORTRAN notation. *)

type array_decl = { a_name : string; a_kind : kind; a_dims : dim list }

type decl =
  | Array of array_decl
  | Scalar of kind * string
  | Equivalence of (string * Expr.t list) list list
      (** Each group aliases the listed elements; an empty subscript list
          means the array's first element, as in [EQUIVALENCE (A, B)]. *)
  | Common of string * string list  (** Block name and member arrays. *)
  | Parameter of (string * int) list

type aref = { name : string; subs : Expr.t list }
(** An array element reference; scalars are [aref]s with empty [subs]. *)

type stmt =
  | Assign of { label : int option; lhs : aref; rhs : Expr.t }
  | Do of {
      label : int option;  (** Terminal label, as in [DO 10 i = ...]. *)
      var : string;
      lo : Expr.t;
      hi : Expr.t;
      step : Expr.t;
      body : stmt list;
    }
  | Continue of int

type program = { p_name : string; decls : decl list; body : stmt list }

val assign : ?label:int -> aref -> Expr.t -> stmt
val do_ : ?label:int -> ?step:Expr.t -> string -> Expr.t -> Expr.t -> stmt list -> stmt
val ref_ : string -> Expr.t list -> aref
val scalar_ref : string -> aref

val find_array : program -> string -> array_decl option

val map_stmts : (stmt -> stmt) -> program -> program
(** Bottom-up statement rewriting over the whole program body. *)

type loops = (string * Expr.t * Expr.t * Expr.t) list
(** The loops around a position, [(var, lo, hi, step)] with the bounds
    as written, outermost first. *)

val map_exprs : (loops:loops -> Expr.t -> Expr.t) -> stmt -> stmt
(** The one expression walker of every pass.  [map_exprs f s] applies
    [f] to every expression [s] holds, in this order: an assignment's
    lhs subscripts, left to right, then its rhs; a DO's [lo], [hi] and
    [step], then its body, statement by statement.  [loops] are the
    loops around the expression within [s]: a DO's own bounds lie
    outside it, its body inside. *)

val map_refs : (loops:loops -> aref -> aref) -> program -> program
(** The one array-reference walker of every pass.  [map_refs f p]
    rewrites, through [f], each assignment's [lhs] (after its
    subscripts) and each [Expr.Call] at any depth (after its arguments,
    so inner calls first), in assignments and in DO bounds and steps,
    in {!map_exprs}' order.  Scalar targets are [aref]s with no
    subscripts; [f] sees calls of undeclared functions too, so it
    filters on names. *)

val iter_assigns : program -> f:(loops:loops -> stmt -> unit) -> unit
(** Visits every [Assign] with the {!loops} around it. *)

val assign_refs : stmt -> (aref * [ `Read | `Write ]) list
(** All array/scalar references of an assignment: the written [lhs]
    followed by every read in [rhs] (subscript reads included). *)

val count_lines : program -> int
(** Number of source lines the pretty-printed program occupies; used by
    the corpus experiment to report program sizes. *)

val pp_stmt : Format.formatter -> stmt -> unit
val to_string : program -> string
(** FORTRAN-77-style rendering of the whole program. *)
