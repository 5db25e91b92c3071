module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Problem = Dlz_deptest.Problem

type result = {
  verdict : Verdict.t;
  dirvecs : Dirvec.t list;
  distances : (int * Poly.t) list;
  decided_by : string;
  degraded : (string * string) list;
}

type status =
  | Decided of Verdict.t * Dirvec.t list * (int * Poly.t) list
  | Pass

type t = {
  name : string;
  applies : env:Assume.t -> Problem.t -> bool;
  run : env:Assume.t -> budget:Dlz_base.Budget.t -> Problem.t -> status;
}

let decided ?dirvecs ?(distances = []) verdict =
  let dirvecs =
    match dirvecs with None -> [] | Some s -> Dirvec.Set.to_list s
  in
  Decided (verdict, dirvecs, distances)

let conservative ?(degraded = []) (p : Problem.t) =
  {
    verdict = Verdict.Dependent;
    dirvecs = [ Dirvec.all_star (Problem.n_common p) ];
    distances = [];
    decided_by = "conservative";
    degraded;
  }

let result_of_status ?(degraded = []) name = function
  | Decided (verdict, dirvecs, distances) ->
      Some { verdict; dirvecs; distances; decided_by = name; degraded }
  | Pass -> None
