(** The paper's experiments, E1–E8 (see DESIGN.md §3).

    Each [eN] renders a plain-text report reproducing the corresponding
    table/figure/claim; the [*_rows] variants expose the raw data the
    test suite asserts on. *)

module Verdict = Dlz_deptest.Verdict

val e1_rows : unit -> (string * Verdict.t) list
(** Verdict of every implemented test on equation (1), in presentation
    order: the classic tests return [dependent]/[inapplicable];
    tightened FM, delinearization and the exact solver prove
    independence. *)

val e1 : unit -> string

val e2 : unit -> string
(** Figure 1 on the synthetic corpus. *)

val e3_rows : ?jobs:int -> ?chunk:int -> unit -> (string * string * string) list
(** Figure 3's dependence table: (pair, direction vector,
    distance-direction vector). *)

val e3 : ?jobs:int -> ?chunk:int -> unit -> string

val e4 : unit -> string
(** Figure 5: the per-iteration trace of the algorithm. *)

val e5 : ?jobs:int -> ?chunk:int -> unit -> string
(** The MHL91 distance-vector claim: exact (2, 0). *)

val e5_distances : unit -> (int * int) list

val e6 : unit -> string
(** Symbolic delinearization (§4): trace, recovered 3-D program, and
    numeric cross-check for sampled [N]. *)

val e7 : ?jobs:int -> ?chunk:int -> unit -> string
(** Induction-variable and aliasing rewrites end-to-end, with the
    vectorizer's parallelization verdicts. *)

val e8 : unit -> string
(** Efficiency, deterministic part: FM system growth and the precision
    of delinearization vs the baseline tests on the linearized family.
    The timings are [bench/main.exe e8]'s. *)

val all : ?jobs:int -> ?chunk:int -> unit -> (string * string) list
(** [(id, report)] for every experiment.  [jobs]/[chunk] parallelize
    the whole-program analyses inside the experiments that have one
    (E3/E5/E7); every report is identical for any job count or chunk
    size. *)

val run : ?jobs:int -> ?chunk:int -> string -> string option
(** [run "e3"] renders one experiment by id (case-insensitive). *)
