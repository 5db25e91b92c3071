(** Array accesses in their normalized loop context.

    Dependence testing works on pairs of accesses: an access is one
    occurrence of an array reference in a statement, together with the
    normalized loops ([var ∈ [0, ub]], outermost first) that surround it
    and the affine form of each subscript.  Extraction assumes the
    normalization passes have run (zero-based, step-1 loops); bounds that
    depend on outer loop variables are replaced by their rectangular
    extension, exactly as the paper's footnote 1 prescribes. *)

module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume

type loop = { l_var : string; l_ub : Poly.t }
(** A normalized loop: the variable ranges over [[0, l_ub]]. *)

type sub = Aff of Affine.t | Opaque
(** One subscript: an affine form, or an unanalyzable expression such as
    [IFUN(10)]. *)

type t = {
  acc_id : int;  (** Unique per extracted access. *)
  stmt_id : int;  (** Index of the owning assignment, program order. *)
  stmt_name : string;  (** Display name, e.g. ["S3"]. *)
  array : string;
  rw : [ `Read | `Write ];
  loops : loop list;  (** Outermost first. *)
  subs : sub list;
}

val common_loops : t -> t -> loop list
(** Longest common prefix of the two accesses' loop stacks (matched by
    variable name), i.e. the loops both statements are nested in. *)

val of_program :
  ?env:Assume.t -> ?arrays_only:bool -> Ast.program -> t list * Assume.t
(** Extracts every array access of a normalized program, in program
    order.  Scalar references are included (as zero-dimensional arrays)
    unless [arrays_only] is [true] (default).  The returned environment
    extends [env] (default {!Assume.empty}) with [sym >= 0] facts for the
    fresh symbols introduced when rectangularizing unanalyzable bounds.

    Raises [Failure] if a loop is not normalized (nonzero lower bound or
    non-unit step): run {!Dlz_passes} normalization first. *)
