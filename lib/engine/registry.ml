module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Problem = Dlz_deptest.Problem
module Depeq = Dlz_deptest.Depeq
module Symeq = Dlz_deptest.Symeq
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

(* --- the paper's algorithm (total: always decides) ---------------------- *)

let meet_sets dvs nvs =
  List.concat_map
    (fun dv -> List.filter_map (fun nv -> Dirvec.meet dv nv) nvs)
    dvs
  |> List.sort_uniq Dirvec.compare

let numeric_common_ubs (p : Problem.t) =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | u :: rest -> (
        match Poly.to_const u with
        | Some c -> go (c :: acc) rest
        | None -> None)
  in
  go [] p.common_ubs

(* The equation divided by the gcd of its coefficients and constant, as
   the cache key divides it.  The solutions are the same, so the answer
   cannot depend on which of two same-key problems is solved; a common
   factor near max_int would otherwise overflow the scan. *)
let reduced (eq : Depeq.t) =
  let g = Dlz_base.Numth.gcd_list (eq.Depeq.c0 :: Depeq.coeffs eq) in
  if g <= 1 then eq
  else
    {
      Depeq.c0 = eq.Depeq.c0 / g;
      terms =
        List.map
          (fun (t : Depeq.term) -> { t with Depeq.coeff = t.Depeq.coeff / g })
          eq.Depeq.terms;
    }

let run_delinearize ~env ~budget (p : Problem.t) =
  let n_common = p.Problem.n_common in
  let num_ubs = numeric_common_ubs p in
  let analyze_eq (eq : Symeq.t) =
    try
      match (Symeq.to_numeric eq, num_ubs) with
      | Some neq, Some ubs ->
          let r =
            Algo.run ~n_common ~common_ubs:(Array.of_list ubs) (reduced neq)
          in
          ( r.Algo.verdict,
            r.Algo.dirvecs,
            List.map (fun (l, d) -> (l, Poly.const d)) r.Algo.distances )
      | _ ->
          let r = Symalgo.run ~env ~n_common eq in
          (r.Symalgo.verdict, r.Symalgo.dirvecs, r.Symalgo.distances)
    with Dlz_base.Intx.Overflow _ ->
      (* Coefficient/bound products past 63 bits: degrade soundly. *)
      (Verdict.Dependent, [ Dirvec.all_star n_common ], [])
  in
  let verdict, dirvecs, distances =
    List.fold_left
      (fun (v, dvs, dists) eq ->
        match v with
        | Verdict.Independent -> (v, dvs, dists)
        | _ ->
            Dlz_base.Budget.spend budget;
            let ve, nv, de = analyze_eq eq in
            if ve = Verdict.Independent then (Verdict.Independent, [], dists)
            else
              let met = meet_sets dvs nv in
              if met = [] then (Verdict.Independent, [], dists)
              else (Verdict.Dependent, met, de @ dists))
      (Verdict.Dependent, [ Dirvec.all_star n_common ], [])
      p.Problem.equations
  in
  match verdict with
  | Verdict.Independent -> Strategy.decided verdict
  | _ ->
      Strategy.decided verdict ~dirvecs
        ~distances:(List.sort_uniq Stdlib.compare distances)

let delinearize =
  {
    Strategy.name = "delinearize";
    applies = (fun ~env:_ _ -> true);
    run = run_delinearize;
  }

(* --- classic hierarchy (total: degrades to all-star on symbolics) ------- *)

(* Overflow and budget exhaustion are no longer swallowed here: they
   propagate to the cascade, which contains them with a degradation
   counter — one uniform fault path instead of per-strategy ad-hoc
   catches. *)
let run_classic ~env:_ ~budget (p : Problem.t) =
  match Problem.to_numeric p with
  | Some np ->
      let dvs = Hierarchy.directions ~budget np in
      Strategy.decided
        (if dvs = [] then Verdict.Independent else Verdict.Dependent)
        ~dirvecs:dvs
  | None ->
      Strategy.decided Verdict.Dependent
        ~dirvecs:[ Dirvec.all_star p.Problem.n_common ]

let classic =
  {
    Strategy.name = "classic";
    applies = (fun ~env:_ _ -> true);
    run = run_classic;
  }

(* --- exact solver (passes on symbolics and overflow) -------------------- *)

let run_exact ~env:_ ~budget (p : Problem.t) =
  match Problem.to_numeric p with
  | Some np ->
      let dvs =
        Exact.direction_vectors ~budget ~n_common:np.Problem.n_common
          np.Problem.eqs
      in
      Strategy.decided
        (if dvs = [] then Verdict.Independent else Verdict.Dependent)
        ~dirvecs:dvs
  | None -> Strategy.Pass

let exact =
  {
    Strategy.name = "exact";
    applies = (fun ~env:_ _ -> true);
    run = run_exact;
  }

(* --- conservative filters: decide only on proven independence ----------- *)

let numeric_applies ~env:_ (p : Problem.t) = Problem.to_numeric p <> None

(* A whole-problem verdict from a sound single-equation test: the system
   is infeasible as soon as one conjunct is.  The per-equation test gets
   the cascade budget so tests with their own search loops (FM
   elimination) stay bounded. *)
let filter_of_eq_test name test =
  let run ~env:_ ~budget (p : Problem.t) =
    match Problem.to_numeric p with
    | None -> Strategy.Pass
    | Some np ->
        let indep =
          List.exists
            (fun eq ->
              Dlz_base.Budget.spend budget;
              Verdict.conservative (test ~budget eq) = Verdict.Independent)
            np.Problem.eqs
        in
        if indep then Strategy.decided Verdict.Independent else Strategy.Pass
  in
  { Strategy.name; applies = numeric_applies; run }

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
  let run ~env:_ ~budget (p : Problem.t) =
    match Problem.to_numeric p with
    | None -> Strategy.Pass
    | Some np ->
        let v = Omega.test ~budget np.Problem.eqs in
        if Verdict.conservative v = Verdict.Independent then
          Strategy.decided Verdict.Independent
        else Strategy.Pass
  in
  { Strategy.name = "omega"; applies = numeric_applies; run }

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
