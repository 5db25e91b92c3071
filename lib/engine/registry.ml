module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Problem = Dlz_deptest.Problem
module Hierarchy = Dlz_deptest.Hierarchy
module Gcd_test = Dlz_deptest.Gcd_test
module Banerjee = Dlz_deptest.Banerjee
module Svpc = Dlz_deptest.Svpc
module Acyclic = Dlz_deptest.Acyclic
module Residue = Dlz_deptest.Residue
module Fm = Dlz_deptest.Fm
module Exact = Dlz_deptest.Exact
module Omega = Dlz_deptest.Omega
module Algo = Dlz_core.Algo
module Symalgo = Dlz_core.Symalgo
module Poly = Dlz_symbolic.Poly

(* --- the paper's algorithm (total: always decides) ---------------------- *)

(* A numeric problem goes to [Algo.solve]: every equation's scan, then
   one hierarchy walk over all the separated pieces.  A symbolic one
   folds [Symalgo.equation] over its equations: the answers meet, and
   the first independent equation ends the fold. *)
let run_delinearize ~env ~budget (p : Problem.t) =
  match p.form with
  | Problem.Numeric np -> (
      match Algo.solve ~budget np with
      | Verdict.Independent, _, _ -> Strategy.decided Verdict.Independent
      | v, dvs, dists ->
          (* Sorted again: polymorphic compare does not order
             [Poly.const] maps as it orders their ints. *)
          Strategy.decided v ~dirvecs:dvs
            ~distances:
              (List.sort_uniq Stdlib.compare
                 (List.map (fun (l, d) -> (l, Poly.const d)) dists)))
  | Problem.Symbolic { n_common; common_ubs; equations; _ } ->
      let solve = Symalgo.equation ~env ~n_common ~common_ubs in
      let rec fold dvs dists = function
        | [] ->
            Strategy.decided Verdict.Dependent ~dirvecs:dvs
              ~distances:(List.sort_uniq Stdlib.compare dists)
        | eq :: rest ->
            Dlz_base.Budget.spend budget;
            let ve, nv, de = Symalgo.answer ~n_common (solve eq) in
            if ve = Verdict.Independent then Strategy.decided ve
            else
              let met = Dirvec.Set.meet dvs nv in
              if Dirvec.Set.is_empty met then
                Strategy.decided Verdict.Independent
              else fold met (de @ dists) rest
      in
      fold (Dirvec.Set.all_star n_common) [] equations

let delinearize =
  {
    Strategy.name = "delinearize";
    applies = (fun ~env:_ _ -> true);
    run = run_delinearize;
  }

(* --- classic hierarchy (total: degrades to all-star on symbolics) ------- *)

(* What a set of direction vectors proves: independence when empty. *)
let of_dirvecs dvs =
  Strategy.decided
    (if Dirvec.Set.is_empty dvs then Verdict.Independent else Verdict.Dependent)
    ~dirvecs:dvs

(* Overflow and budget exhaustion are no longer swallowed here: they
   propagate to the cascade, which contains them with a degradation
   counter — one uniform fault path instead of per-strategy ad-hoc
   catches. *)
let run_classic ~env:_ ~budget (p : Problem.t) =
  match p.form with
  | Problem.Numeric np -> of_dirvecs (Hierarchy.directions ~budget np)
  | Problem.Symbolic { n_common; _ } ->
      Strategy.decided Verdict.Dependent
        ~dirvecs:(Dirvec.Set.all_star n_common)

let classic =
  {
    Strategy.name = "classic";
    applies = (fun ~env:_ _ -> true);
    run = run_classic;
  }

(* The strategies below read only the integer form: they pass on a
   symbolic problem. *)
let on_numeric run ~env:_ ~budget (p : Problem.t) =
  match p.form with
  | Problem.Numeric np -> run ~budget np
  | Problem.Symbolic _ -> Strategy.Pass

(* --- exact solver (passes on symbolics and overflow) -------------------- *)

let exact =
  {
    Strategy.name = "exact";
    applies = (fun ~env:_ _ -> true);
    run =
      on_numeric (fun ~budget (np : Problem.numeric) ->
          of_dirvecs
            (Exact.direction_vectors ~budget ~n_common:np.n_common np.eqs));
  }

(* --- conservative filters: decide only on proven independence ----------- *)

let numeric_applies ~env:_ (p : Problem.t) =
  match p.form with Problem.Numeric _ -> true | Problem.Symbolic _ -> false

(* A whole-problem verdict from a sound single-equation test: the system
   is infeasible as soon as one conjunct is.  The per-equation test gets
   the cascade budget so tests with their own search loops (FM
   elimination) stay bounded. *)
let filter_of_eq_test name test =
  let run ~budget (np : Problem.numeric) =
    let indep =
      List.exists
        (fun eq ->
          Dlz_base.Budget.spend budget;
          Verdict.conservative (test ~budget eq) = Verdict.Independent)
        np.eqs
    in
    if indep then Strategy.decided Verdict.Independent else Strategy.Pass
  in
  { Strategy.name; applies = numeric_applies; run = on_numeric run }

let gcd = filter_of_eq_test "gcd" (fun ~budget:_ eq -> Gcd_test.test eq)
let banerjee = filter_of_eq_test "banerjee" (fun ~budget:_ eq -> Banerjee.test eq)
let svpc = filter_of_eq_test "svpc" (fun ~budget:_ eq -> Svpc.test eq)
let acyclic = filter_of_eq_test "acyclic" (fun ~budget:_ eq -> Acyclic.test eq)
let residue = filter_of_eq_test "residue" (fun ~budget:_ eq -> Residue.test eq)

(* Pugh-tightened Fourier-Motzkin: integer-sound (every division of a
   derived row by the coefficient gcd with a floored bound is implied
   for integer points), so an infeasibility verdict proves
   independence. *)
let fm =
  filter_of_eq_test "fm" (fun ~budget eq -> Fm.test ~budget Fm.Tightened eq)

let omega =
  let run ~budget (np : Problem.numeric) =
    if Verdict.conservative (Omega.test ~budget np.eqs) = Verdict.Independent
    then Strategy.decided Verdict.Independent
    else Strategy.Pass
  in
  { Strategy.name = "omega"; applies = numeric_applies; run = on_numeric run }

(* --- the registry ------------------------------------------------------- *)

let table : (string, Strategy.t) Hashtbl.t = Hashtbl.create 16

let register (s : Strategy.t) = Hashtbl.replace table s.Strategy.name s
let find name = Hashtbl.find_opt table name

let names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) table []
  |> List.sort String.compare

let all () =
  Hashtbl.fold (fun _ s acc -> s :: acc) table []
  |> List.sort (fun (a : Strategy.t) b -> String.compare a.name b.name)

let () =
  List.iter register
    [ delinearize; classic; exact; gcd; banerjee; svpc; acyclic; residue;
      fm; omega ]
