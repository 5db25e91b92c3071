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
    whole index".  Aliased arrays that do not line up dimension by
    dimension are linearized completely, so no alias goes unseen. *)

type group = {
  members : string list;  (** Arrays aliased together. *)
  repl : string;  (** Name of the replacement array. *)
  kept_dims : int;  (** Trailing dimensions preserved. *)
}

val linearize : Dlz_ir.Ast.program -> Dlz_ir.Ast.program * group list
(** Rewrites every EQUIVALENCE group whose members have constant bounds
    and constant anchor subscripts.  Groups that share a member (as in
    [EQUIVALENCE (A, B), (B(2), C)], or two inlined calls with the same
    actual) merge into one group first, with the anchor offsets chained
    through the shared member.  When every member starts at the
    same element and the leading totals agree, the common trailing
    dimensions are kept; any other group (unequal totals, as the inliner
    makes for a dummy smaller than its actual, or anchors at different
    offsets) is folded fully ([kept_dims = 0]) into one 1-d array that
    holds each member at its storage offset.  A group with a
    non-constant bound folds only when every member declares the same
    dimension list (equal as expressions, as in [REAL A(0:N-1),
    B(0:N-1)]) and is anchored at its first element: the members become
    one array with those dimensions and every subscript stays as written
    ([kept_dims] = the rank).  A group of rank-1 members with constant
    lower bounds, extents [hi - lo] equal as expressions and constant
    anchors (as in [REAL A(0:N-1), B(0:N-1)] with
    [EQUIVALENCE (A(1), B)]) folds into one array
    [0 : max start + extent - 1] that holds each member at its storage
    offset, every subscript shifted by [start - lo] ([kept_dims = 1]).
    Groups with an undeclared member, any other non-constant bound or
    anchor (members of extents [N] and [M] need a symbolic maximum), or
    two anchors that place one member at different offsets are left
    untouched (and reported with [kept_dims = -1]).  Fold [PARAMETER]s first, as
    {!Pipeline.prepare} does. *)
