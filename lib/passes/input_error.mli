(** The errors an input program can raise on its way through
    {!Pipeline.load}: one table for [vic] (which prints the message and
    exits 1), for bulk mode (which turns it into an [ok:false] row) and
    for the daemon (which answers ["bad-request"]). *)

val describe : exn -> string option
(** The message for an expected input error — a parse error, a
    pointer or inlining construct outside the supported subset, a
    storage area {!Storage.associate} refuses, a
    [Failure] from a pass, or a pass's 63-bit {!Dlz_base.Intx.Overflow}
    or {!Dlz_base.Intx.Div_by_zero} — and [None] for any other
    exception. *)
