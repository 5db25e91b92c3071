(** Procedure inlining with dummy/actual argument association (paper §1,
    "Array aliasing").

    The third aliasing source the paper lists: "association of dummy and
    actual parameters of procedure call.  FORTRAN ANSI standard states
    that in time of association (aliasing) participating arrays are
    considered to be linearized."  This pass inlines [CALL] sites (the
    front end encodes them as assignments to the marker scalar [%CALL])
    and realizes the association:

    - a dummy array whose declared shape equals the actual's is renamed;
    - a dummy array of a {e different} shape becomes a fresh array
      EQUIVALENCE'd to the actual — storage association
      ({!Storage.associate}, part of the standard pipeline) then
      linearizes exactly the dimensions that differ, as the standard
      prescribes and delinearization later undoes;
    - scalar dummies are substituted by their actual expressions
      (write-accessed scalar dummies are rejected);
    - callee-local names are freshened per call site.

    Restrictions (checked, {!Unsupported} otherwise): array actuals must
    be bare array names, the dummy's total size must not exceed the
    actual's, and recursion is rejected. *)

exception Unsupported of string

val expand : (Dlz_ir.Ast.program * string list) list -> Dlz_ir.Ast.program
(** [expand units] inlines every call in the main (first) unit, through
    nested calls (depth-capped).  The result has no [%CALL] markers and
    is ready for the standard pipeline. *)
