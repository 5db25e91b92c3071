(** Synthetic RiCEPS-like corpus (the E2 substitution for Figure 1).

    The 1989 Rice benchmark suite is not redistributable, so the
    experiment is rebuilt on a controlled stand-in: for each of the eight
    programs Figure 1 reports, a deterministic generator emits a FORTRAN
    program of the same order of size whose number of outermost loop
    nests containing linearized references is known by construction —
    planted with the three idioms the paper attributes to the real
    programs (hand-linearized subscripts, run-time dimensioning with
    symbolic strides, and multi-loop induction variables), plus
    EQUIVALENCE-aliasing nests that only become linearized after the
    aliasing pass runs.  What E2 validates is the *detector*: the static
    counter must recover the planted counts through the full pipeline. *)

type spec = {
  name : string;
  domain : string;  (** Figure 1's "Type" column. *)
  target_lines : int;
  reported : string;  (** Figure 1's count as printed, e.g. [">28"]. *)
  planted : int;  (** Nests with linearized references we generate. *)
}

val riceps : spec list
(** The eight programs of Figure 1, in the paper's order. *)

val generate : spec -> Dlz_ir.Ast.program
(** Deterministic (seeded by the program name). *)

val is_linearized_access : Dlz_ir.Access.t -> bool
(** A reference is linearized when some subscript mixes loop variables
    at two or more distinct coefficient magnitudes (e.g. [i + 10*j] or
    [K + J*KK]) — the shape delinearization can break. *)

type row = {
  r_spec : spec;
  r_lines : int;  (** Actual generated line count. *)
  r_counted : int;  (** What the detector measured. *)
}

val figure1 : unit -> row list
(** Generates and measures the whole corpus. *)

type ablation_row = {
  a_name : string;
  a_nests : int;  (** Nests with linearized references. *)
  a_parallel_delin : int;
      (** Of those, fully parallel under delinearization. *)
  a_parallel_classic : int;  (** Same under the classic tests. *)
}

val parallel_ablation : unit -> ablation_row list
(** The delinearization-on/off ablation (DESIGN.md §3, ablation iii):
    for every linearized nest of the corpus, is every loop of the nest
    dependence-free?  The gap between the two columns is the paper's
    value proposition measured on the stand-in corpus. *)
