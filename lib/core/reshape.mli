(** Literal array delinearization: recovering a multidimensional shape.

    "Replacement of the above program fragment with [C(0:9,0:9)] …
    is delinearization in the literal sense of the word."  Given a
    1-dimensional array whose subscripts all decompose into coefficient
    groups [c1 | c2 | …] with [c_(k+1) = c_k * extent_k] and with each
    group's value range provably inside its extent, the array is
    redeclared with one dimension per group and every reference is
    rewritten, e.g. [A(N*N*k + N*j + i)] becomes [A(i, j, k)] and
    [A(N*N*k + j + N*i + N*N + N)] becomes [A(j, i+1, k+1)] (the paper's
    §4 example; constants distribute mixed-radix over the dimensions).

    This is the program-transformation face of the same theorem the
    dependence algorithm uses; the two must agree, which the test suite
    checks by comparing access traces before and after. *)

module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume

type plan = {
  array : string;
  extents : Poly.t list;
      (** Extent of each recovered dimension, innermost (fastest) first;
          the last entry is the leftover outer extent. *)
}

val apply : env:Assume.t -> Dlz_ir.Ast.program -> Dlz_ir.Ast.program * plan list
(** Reshapes every array with a valid plan: declarations get the
    recovered dimensions (0-based), references get one subscript per
    dimension. *)
