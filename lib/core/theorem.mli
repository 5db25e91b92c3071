(** The delinearization theorem (paper §3).

    Let the constrained equation be

    {v c0 + c1*z1 + ... + cn*zn = 0,   zk ∈ [0, Zk] v}

    and pick [m ∈ [1, n]] and a split [c0 = d0 + D0].  If

    {v gcd(D0, c(m+1), ..., cn)  >  max(|d0 + Σ(k≤m) ck⁻ Zk|,
                                        |d0 + Σ(k≤m) ck⁺ Zk|) v}

    then the solution set of the original equation is exactly the
    Cartesian product of the solution sets of

    {v d0 + c1*z1 + ... + cm*zm = 0 v}  and
    {v D0 + c(m+1)*z(m+1) + ... + cn*zn = 0 v}

    over their own boxes.  This module checks the hypothesis and builds
    the two pieces; the test suite verifies the conclusion against brute
    force. *)

module Depeq = Dlz_deptest.Depeq

type split = {
  front : Depeq.t;  (** [d0 + Σ(k ≤ m) ck zk = 0]. *)
  back : Depeq.t;  (** [D0 + Σ(k > m) ck zk = 0]. *)
}

val condition : Depeq.t -> m:int -> d0:int -> bool
(** [condition eq ~m ~d0] checks the theorem hypothesis for splitting
    after the [m]-th term of [eq] (in the equation's own term order, 1-based)
    with constant split [d0] / [eq.c0 - d0].  Raises [Invalid_argument]
    when [m] is out of range. *)

val split : Depeq.t -> m:int -> d0:int -> split option
(** The two pieces, when {!condition} holds. *)

val product_solutions_agree : Depeq.t -> split -> bool
(** Brute-force check (small boxes only) that the Cartesian-product
    characterization holds; the core tests run it. *)
