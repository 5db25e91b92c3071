(** Storage association (paper §1, "Array aliasing").

    "In FORTRAN-77 array aliasing is caused by EQUIVALENCE, COMMON
    statements and by association of dummy and actual parameters."  The
    first two are one mechanism: a COMMON block lays its members out
    consecutively in one storage sequence, an EQUIVALENCE gives its
    anchor elements one address, and F77 lets the two extend each other
    (an EQUIVALENCE may make an array overlap a whole block).  A
    reference to any member of such a {e storage area} is an offset into
    one linear sequence, so references to different members can only be
    compared through that sequence; delinearization then recovers the
    per-member precision.

    This module holds the layout rules once.  {!layout} places every
    member of every area, and both {!Interp} (which executes the layout
    exactly) and {!associate} (which makes it explicit in the program)
    read it.  Following the paper's advice, [associate] linearizes only
    the dimensions that differ: in

    {v REAL A(0:9,0:9)  REAL B(0:4,0:19)  EQUIVALENCE (A, B) v}

    [A(i,j)] becomes [LIN1(i+10*j)] and [B(i,j)] becomes [LIN1(i+5*j)],
    and in the 4-dimensional variant only the first two subscripts fold,
    so an opaque subscript like [IFUN(10)] in a trailing dimension never
    "spoils the whole index". *)

type area = {
  members : string list;
      (** The declared arrays of the area, in order of first appearance
          in its COMMON and EQUIVALENCE statements. *)
  bases : int list;
      (** Each member's offset in [repl], in elements of [repl]'s first
          dimension; [[]] when the area is left unfolded. *)
  repl : string;  (** The replacement array; [""] when unfolded. *)
  kept_dims : int;
      (** Trailing member dimensions [repl] keeps; [-1] when unfolded. *)
}

exception Conflict of string
(** Two EQUIVALENCE anchors place the named array at two addresses. *)

val layout :
  size:(string -> int) ->
  anchor:(string -> Dlz_ir.Expr.t list -> int) ->
  Dlz_ir.Ast.program ->
  (string * (string * int) list) list
(** The storage areas of a program: arrays joined, directly or through
    each other, by a COMMON block (every statement naming it, in order)
    or an EQUIVALENCE group.  Each comes with a name of its own (["/X"]
    for an area holding block [X], its first member otherwise) and its
    declared members' base offsets, the lowest at 0: a block's members
    follow each other, and each EQUIVALENCE anchor element takes the
    address of its group's first one.  [size a] is [a]'s element count
    and [anchor a subs] the offset of the element [a(subs)] from [a]'s
    first; names that no array declaration gives are skipped.  Raises
    {!Conflict}, or whatever [size] and [anchor] raise. *)

val associate : Dlz_ir.Ast.program -> Dlz_ir.Ast.program * area list
(** Folds every storage area of two or more members into one array and
    reports each such area, folded or not.  Members that start together
    with equal leading totals keep their common trailing dimensions
    (the leading ones fold column-major into the first subscript); any
    other area with constant bounds and anchors folds into one 1-d array
    that holds each member at its base ([kept_dims = 0]).  An area
    without COMMON whose bounds are symbolic folds in two cases: every
    member declares the same dimension list (equal as expressions) and
    is anchored at its first element (one array with those dimensions,
    subscripts as written, [kept_dims] = the rank); or every member has
    rank 1, a constant lower bound, an extent [hi - lo] equal as an
    expression and constant anchors (one array
    [0 : max base + extent - 1], each subscript shifted by
    [base - lo], [kept_dims = 1]).  An area that holds a COMMON block
    [X] becomes [CBX], and [X]'s COMMON statement lists only [CBX]; any
    other becomes [LINk], [k] counting from 1.

    An area stays as written ([kept_dims = -1]) when a statement of it
    names an array no declaration gives, a member is referenced with a
    subscript count other than its rank, two anchors place a member at
    two addresses, it joins two COMMON blocks, or its offsets would be
    symbolic (a COMMON block or EQUIVALENCE of non-constant size,
    extents [N] and [M] needing a symbolic maximum).  A program without
    COMMON or EQUIVALENCE comes back as it is.  Fold [PARAMETER]s first,
    as {!Pipeline.prepare} does. *)
