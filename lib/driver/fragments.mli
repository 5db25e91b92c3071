(** Every program fragment that appears in the paper, as source text.

    Centralized so the experiments, the examples and the integration
    tests all analyze exactly the same programs. *)

val intro_serial : string
(** [D(i+1) = D(i)*Q]: the introduction's non-parallelizable loop. *)

val intro_parallel : string
(** [D(i) = D(i+5)*Q]: the introduction's parallelizable loop. *)

val eq1_program : string
(** [C(i+10*j) = C(i+10*j+5)]: the motivating linearized program whose
    dependence equation is (1). *)

val eq1 : unit -> Dlz_deptest.Depeq.t
(** Equation (1) itself. *)

val fig5_equation : unit -> Dlz_deptest.Depeq.t
(** The Figure-5 equation
    [100k1 - 100k2 + 10j1 - 10i2 + i1 - j2 - 110 = 0]. *)

val mhl_program : string
(** [A(10*i+j) = A(10*(i+2)+j) + 7]: the MHL91 fragment with exact
    distance vector (2, 0). *)

val fig3_program : string
(** The Figure-3 program adapted from Allen–Kennedy. *)

val ib_program : string
(** The BOAST-derived nest with the 3-loop induction variable [IB]. *)

val equivalence_2d : string
(** [A(0:9,0:9)] / [B(0:4,0:19)] aliased by EQUIVALENCE. *)

val equivalence_4d : string
(** The 4-dimensional aliasing example with [IFUN(10)] in a trailing
    subscript (partial linearization). *)

val c_pointers : string
(** The §1 C fragment traversing [d\[100\]] with pointers. *)

val symbolic_program : string
(** The §4 program [A(N*N*k+N*j+i) = A(N*N*k+j+N*i+N*N+N)]. *)

val overflow_stress_program : string
(** A nest whose subscript coefficients (2^40, 2^40 + 1, coprime) times
    their bounds (2^24) overflow [max_int] inside every numeric
    dependence test — the stress input for
    {!Dlz_engine.Cascade} overflow containment. *)
