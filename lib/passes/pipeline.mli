(** The standard analysis pipeline, and the one front door a program
    enters the system by.

    Order matters: parameters fold into bounds first, loops normalize to
    [0..ub] step 1 (a precondition of induction recognition and access
    extraction), induction variables turn into closed forms (creating
    linearized references), and the storage areas of COMMON and
    EQUIVALENCE fold last, in one step. *)

val prepare : Dlz_ir.Ast.program -> Dlz_ir.Ast.program * Storage.area list
(** [fold_parameters → loop-normalize → induction-substitute →
    storage-associate → simplify], with {!Storage.associate}'s report. *)

val prepare_program : Dlz_ir.Ast.program -> Dlz_ir.Ast.program
(** {!prepare} without the report. *)

type lang = [ `C | `F77 ]

val lang_of_path : string -> lang
(** [`C] for a [.c] path, [`F77] for anything else. *)

val load : lang -> string -> Dlz_ir.Ast.program
(** [load lang source] parses, lowers and normalizes a program: C goes
    through {!Dlz_frontend.C_parser.parse} and {!Pointers.lower},
    FORTRAN-77 through {!Dlz_frontend.F77_parser.parse_units} and
    {!Inline.expand}, then both through {!prepare_program}.  The two
    steps are the trace spans ["parse"] (category [frontend]) and
    ["normalize"] (category [passes]).  [vic], bulk mode and the daemon
    all read a program this way; what it raises on bad input,
    {!Input_error.describe} names. *)
