(** Forward linearization: the transformation delinearization reverses.

    "For FORTRAN programs, linearization is replacement of a reference
    [A(i1, …, in)] to an n-dimensional array [A(0:H1, …, 0:Hn)] with a
    reference [A(i1 + Σ i_l·Π(H_t+1))] to a 1-dimensional array" — done
    by most compilers to map arrays onto memory, and the safe assumption
    for C programs whose subscripts may ignore declared bounds.

    This pass makes the assumption explicit: every multidimensional
    array with constant bounds becomes 1-dimensional (column-major).
    Together with {!Dlz_core.Reshape} it closes the paper's round trip,
    which the property tests exercise: linearize ∘ reshape preserves the
    access trace, and analyzing the linearized program with
    delinearization loses no precision against the original. *)

val program : Dlz_ir.Ast.program -> Dlz_ir.Ast.program
(** Linearizes every declared array of rank ≥ 2 whose dimension bounds
    are integer constants; rank-1 arrays are rebased to [0:size-1].
    References with a subscript count different from the declared rank
    are left untouched (and keep the old declaration).  Run after the
    [PARAMETER] fold that {!Pipeline.prepare} starts with. *)

val array : Dlz_ir.Ast.program -> string -> Dlz_ir.Ast.program
(** Linearizes a single array by name (no-op when impossible). *)
