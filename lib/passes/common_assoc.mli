(** COMMON-block sequence association (paper §1, "Array aliasing").

    "In FORTRAN-77 array aliasing is caused by EQUIVALENCE, COMMON
    statements and by association of dummy and actual parameters."  A
    COMMON block lays its members out consecutively in one storage
    sequence, so references to different members are offsets into the
    same linear array — and programs do exploit that ("correctly working
    programs which may be not standard conforming").  This pass makes
    the association explicit: each block with constant-bound members
    becomes a single 1-dimensional array, every member reference becomes
    a linearized reference at the member's base offset, and the analyzer
    can then compare accesses across members (delinearization recovers
    the per-member precision). *)

type block = {
  b_name : string;  (** The COMMON block name. *)
  b_array : string;  (** The replacement array. *)
  b_members : (string * int) list;  (** (member, base offset). *)
}

val linearize : Dlz_ir.Ast.program -> Dlz_ir.Ast.program * block list
(** Rewrites every COMMON block whose members are all declared with
    constant bounds and referenced with their declared rank; other
    blocks are left untouched.  Run after the [PARAMETER] fold that
    {!Pipeline.prepare} starts with. *)
