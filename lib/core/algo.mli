(** The delinearization algorithm (paper Figure 4), numeric version.

    Orders the coefficients of a dependence equation by absolute value,
    scans from small to large maintaining the running extremes
    [smin]/[smax] of the processed group, and draws a "barrier" —
    emitting a separated equation — whenever the theorem condition
    [max(|cmin|, |cmax|) < g_k] holds ([g_k] = gcd of the remaining
    coefficients).  Each separated equation is solved by the existing
    techniques ({!Dlz_deptest.Hierarchy}) and the direction-vector sets
    are intersected on the fly.  As the paper proves, the inline
    [cmin > 0 ∨ cmax < 0] check makes the algorithm exactly as sharp as
    GCD + Banerjee per separated dimension, at (near-)linear cost. *)

module Depeq = Dlz_deptest.Depeq
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec

type residue_policy =
  | Nonneg  (** [r = c0 mod g ∈ [0, g-1]]: the literal reading. *)
  | Symmetric  (** Least absolute value: [r ∈ (-g/2, g/2]]. *)
  | Optimal
      (** The representative closest to [-(smin+smax)/2], which maximizes
          the chance of satisfying the barrier condition (reproduces the
          paper's Figure 5, where [c0 = -110], [g = 100] must yield
          [r = -10]).  The default. *)

type step = {
  k : int;  (** Iteration counter over the sorted coefficients, 1-based. *)
  coeff : int option;  (** [c_Ik]; [None] on the final (n+1)-th step. *)
  smin : int;  (** Running minimum before this step's barrier check. *)
  smax : int;
  gk : int option;  (** Suffix gcd; [None] means infinity. *)
  r : int;  (** Chosen residue of [c0] modulo [gk]. *)
  barrier : bool;  (** Whether the theorem condition held here. *)
  separated : Depeq.t option;
      (** The equation singled out at this barrier (omitted for the
          trivial [0 = 0] first step). *)
}

type result = {
  verdict : Verdict.t;
  pieces : Depeq.t list;  (** Separated equations, in emission order. *)
  dirvecs : Dirvec.Set.t;
      (** Surviving basic direction vectors over the common loops. *)
  distances : (int * int) list;
      (** [(level, β-α)] distances proven constant by some piece. *)
  steps : step list;  (** Full per-iteration trace (Figure 5). *)
}

val piece_distance : Depeq.t -> (int * int) option
(** Exact distance carried by a separated pair equation
    [r + a·α - a·β = 0] at a common level: [β - α = r/a] when [a]
    divides [r]; [None] for any other shape. *)

val sort_terms : Depeq.t -> Depeq.t
(** The equation with terms reordered by ascending [|coefficient|]
    (stable), as the algorithm's preamble requires. *)

val run :
  ?policy:residue_policy ->
  n_common:int ->
  common_ubs:int array ->
  Depeq.t ->
  result
(** Runs the algorithm.  {!Dlz_deptest.Hierarchy.directions} computes
    the direction vectors of each separated equation.
    [n_common]/[common_ubs] describe the common loops of the dependence
    pair (used to size direction vectors and check direction
    feasibility). *)

val reduced : Depeq.t -> Depeq.t
(** The equation divided by the gcd of its coefficients and constant,
    as the cache key divides it: same solutions, smaller numbers. *)

val solve :
  ?policy:residue_policy ->
  ?budget:Dlz_base.Budget.t ->
  Dlz_deptest.Problem.numeric ->
  Verdict.t * Dirvec.Set.t * (int * int) list
(** The ["delinearize"] strategy on a numeric problem: the verdict, the
    direction vectors (empty when independent) and the sorted
    [(level, β-α)] distances.  Each equation is {!reduced} and scanned
    as {!run} scans it, with no step records and no walk; then one
    {!Dlz_deptest.Hierarchy.directions} call walks the separated pieces
    of every equation together.  A basic vector survives that walk
    exactly when it survives each piece's own walk, so the answer is
    the meet of the equations' {!run} answers, the first independent
    one ending the meet:
    - with no piece at all it is the unexpanded [(*, …, *)];
    - an equation whose scan overflows is independent when the pieces
      it separated before the overflow walk empty ({!run} stops there,
      before the overflow), and adds nothing otherwise;
    - an equation with a piece whose walk might overflow takes {!run}'s
      answer (a joint walk could skip the node where that piece's own
      walk overflows), and adds nothing when {!run} overflows.

    One [budget] unit is spent per equation up to the one that settles
    the answer: all of them when dependent; when independent and the
    budget carries fuel, the first whose prefix of equations leaves no
    vector. *)

val test : ?policy:residue_policy -> Depeq.t -> Verdict.t
(** Independence-only entry point (no direction vectors computed for the
    pieces — only the inline GCD/Banerjee-equivalent check), matching the
    cost the paper's §3 "Efficiency" paragraph discusses. *)

val step_table : step list -> Dlz_base.Table.t
(** The Figure-5 table of a scan: one row per step, numeric columns
    right-aligned, and last the equation a barrier separates —
    "(trivial 0 = 0)" for the first step's empty group, "(independent)"
    where the inline check ends the scan. *)
