(** Random constant-bound loop-nest programs for end-to-end testing.

    Generates small normalized programs with affine (frequently
    linearized) subscripts whose array declarations are sized to the
    hull of the subscript values, so {!Dlz_passes.Interp} never faults
    on them.  Used by the property tests that compare the static
    analyzer and the vectorizer against {!Dynamic} ground truth, the
    fold over that interpreter's access stream. *)

type profile = {
  p_depth : int * int;  (** Nest depth range. *)
  p_trip : int * int;  (** Per-loop trip count (upper bound) range. *)
  p_stmts : int * int;  (** Statements per program. *)
  p_coeffs : int array;  (** Large-magnitude subscript coefficient pool. *)
}
(** Generation knobs, the hook the differential oracle's program family
    uses to steer the distribution. *)

val linearized_profile : profile
(** Deeper nests with trip-count-scale strides, so subscripts
    frequently look hand-linearized. *)

val random_profiled : profile -> Dlz_base.Prng.t -> Dlz_ir.Ast.program

val random : Dlz_base.Prng.t -> Dlz_ir.Ast.program
(** A program with 1–2 nests of depth 1–3 (trip counts ≤ 5), 1–3
    assignment statements over 1–2 shared arrays, subscript
    coefficients in [-12, 12]. *)
