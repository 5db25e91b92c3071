(** Abstract syntax of the mini-C front end.

    Covers the paper's §1 C fragment and its kin: scalar/array/pointer
    declarations, [for] loops with linear induction updates, assignments
    through derefs and subscripts, and pointer arithmetic.  The
    {!Dlz_passes} pointer-conversion pass lowers this to the common
    loop-nest IR. *)

type base_type = Float | Int

type declarator = {
  d_ptr : bool;  (** Declared as [*name]. *)
  d_name : string;
  d_dims : int list;
      (** Constant extents, outermost first; [\[\]] for scalars, so
          [double A\[N\]\[M\]] carries [\[N; M\]]. *)
}

type expr =
  | EInt of int
  | EFloat of string  (** Opaque real literal, kept as written. *)
  | EVar of string
  | ENeg of expr
  | EDeref of expr  (** [*e] *)
  | EBin of [ `Add | `Sub | `Mul | `Div ] * expr * expr
  | EIndex of expr * expr  (** [e1\[e2\]] *)
  | ECall of string * expr list

type cond = { lhs : expr; op : [ `Lt | `Le | `Gt | `Ge ]; rhs : expr }

type step = {
  s_var : string;
  s_delta : int;  (** [v++] is +1, [v += k] is +k, [v -= k] is -k. *)
}

type stmt =
  | Decl of base_type * declarator list
  | For of { init : (string * expr) option; cond : cond; step : step;
             body : stmt list }
  | Assign of expr * expr  (** lvalue, rvalue. *)

type program = stmt list

val pp : Format.formatter -> program -> unit
