(** The paper's experiments, E1–E8 (see DESIGN.md §3).

    Each renders a plain-text report reproducing the corresponding
    table/figure/claim, by id through {!all} and {!run}: E1 equation (1)
    under every test, E2 Figure 1, E3 Figure 3, E4 Figure 5's
    per-iteration trace, E5 the MHL91 distance-vector claim, E6 symbolic
    delinearization (§4), E7 the induction-variable and aliasing
    rewrites end-to-end, E8 the deterministic part of the efficiency
    claims (the timings are [bench/main.exe e8]'s).  The [*_rows]
    variants expose the raw data the test suite asserts on. *)

module Verdict = Dlz_deptest.Verdict

val e1_rows : unit -> (string * Verdict.t) list
(** Verdict of every implemented test on equation (1), in presentation
    order: the classic tests return [dependent]/[inapplicable];
    tightened FM, delinearization and the exact solver prove
    independence. *)

val e2 : unit -> string
(** Figure 1 on the synthetic corpus. *)

val e3_rows : ?pool:Dlz_base.Pool.t -> unit -> (string * string * string) list
(** Figure 3's dependence table: (pair, direction vector,
    distance-direction vector). *)

val e5_distances : unit -> (int * int) list

val all : ?pool:Dlz_base.Pool.t -> unit -> (string * string) list
(** [(id, report)] for every experiment.  [pool] parallelizes the
    whole-program analyses inside the experiments that have one
    (E3/E5/E7); every report is identical for any pool width. *)

val run : ?pool:Dlz_base.Pool.t -> string -> string option
(** [run "e3"] renders one experiment by id (case-insensitive). *)
