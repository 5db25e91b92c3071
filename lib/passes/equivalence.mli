(** EQUIVALENCE-driven array linearization (paper §1, "Array aliasing").

    FORTRAN declares that associated arrays are linearized at the time of
    association, so references to aliased arrays of different shape must
    be linearized to be compared at all.  Following the paper's advice,
    only the dimensions that differ are linearized: the longest trailing
    run of dimensions with equal extents across the group is kept, and
    the leading dimensions are folded (column-major) into a single
    subscript of a shared replacement array.  The classic example

    {v REAL A(0:9,0:9)  REAL B(0:4,0:19)  EQUIVALENCE (A, B) v}

    rewrites [A(i,j)] to [C(i+10*j)] and [B(i,j)] to [C(i+5*j)], after
    which delinearization recovers precision; and in the 4-dimensional
    variant only the first two subscripts are folded, so an opaque
    subscript like [IFUN(10)] in a trailing dimension never "spoils the
    whole index". *)

type group = {
  members : string list;  (** Arrays aliased together. *)
  repl : string;  (** Name of the replacement array. *)
  kept_dims : int;  (** Trailing dimensions preserved. *)
}

val linearize : Dlz_ir.Ast.program -> Dlz_ir.Ast.program * group list
(** Rewrites every EQUIVALENCE group whose members alias at their base
    element and whose total leading extents agree; other groups are left
    untouched (and reported with [kept_dims = -1]).  Bounds must be
    constants (fold [PARAMETER]s first, as {!Pipeline.prepare} does). *)
