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

    This module holds the layout rules once, over polynomial offsets:
    {!layout} places every member of every area with constant sizes for
    {!Interp} (which executes the layout exactly), and {!associate}
    places them with symbolic ones to make the layout explicit in the
    program.  Following the paper's advice, [associate] linearizes only
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
  bases : Dlz_symbolic.Poly.t list;
      (** Each member's offset in [repl], in elements of [repl]'s first
          dimension (a polynomial in the program's symbols); [[]] when
          the area is left unfolded. *)
  repl : string;  (** The replacement array; [""] when unfolded. *)
  kept_dims : int;
      (** Trailing member dimensions [repl] keeps; [-1] when unfolded. *)
}

type error =
  | Conflict of string
      (** Two EQUIVALENCE anchors place the named array at two
          addresses. *)
  | Two_blocks of string * string
      (** An area joins COMMON blocks [x] and [y], which F77 forbids. *)
  | Unplaced of string
      (** The named member has a bound or anchor that is not a
          polynomial or an anchor of the wrong subscript count, or it
          is the first member of an area whose lowest base
          {!Dlz_symbolic.Assume} cannot decide and whose bases it cannot
          prove to lie above minus the sum of the member sizes. *)

exception Error of error

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
    first; names that no array declaration gives are skipped.  The same
    rules place {!associate}'s symbolic bases.  Raises [Error (Conflict
    _)], or whatever [size] and [anchor] raise. *)

val associate : Dlz_ir.Ast.program -> Dlz_ir.Ast.program * area list
(** Folds every storage area of two or more members into one array and
    reports each such area, by one rule over polynomial bounds: each
    member sits at its base (placed as {!layout} places it), its leading
    dimensions fold column-major into the first subscript, and members
    that start together with equal leading totals keep the trailing
    dimensions whose extents are equal polynomials (the paper's partial
    linearization).  Bases, strides and the replacement's extent are
    polynomials compared under the facts that every declared extent is
    at least 1: the area starts at the lowest base, or, when no base
    provably is, at minus the sum of the member sizes; the extent is the
    largest member end, or the sum of the ends when none provably
    dominates (members [A(0:N-1)] and
    [B(0:M-1)] give [0 : N+M-1]).  An area that holds a COMMON block [X]
    becomes [CBX], and [X]'s COMMON statement lists only [CBX]; any
    other becomes [LINk], [k] counting from 1.

    An area stays as written ([kept_dims = -1]) when a statement of it
    names an array no declaration gives or a member is referenced with
    a subscript count other than its rank.  An area that joins two
    COMMON blocks, places a member at two addresses, or whose bases
    cannot be placed raises {!Error}; of an array alone in its area,
    which stays as it is, only the first two are checked.  A program
    without COMMON or EQUIVALENCE comes back as it is.  Fold
    [PARAMETER]s first, as {!Pipeline.prepare} does. *)
