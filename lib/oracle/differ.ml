module Budget = Dlz_base.Budget
module Intx = Dlz_base.Intx
module Pool = Dlz_base.Pool
module Trace = Dlz_base.Trace
module Poly = Dlz_symbolic.Poly
module Verdict = Dlz_deptest.Verdict
module Problem = Dlz_deptest.Problem
module Strategy = Dlz_engine.Strategy
module Registry = Dlz_engine.Registry
module Stats = Dlz_engine.Stats
module Chaos = Dlz_engine.Chaos

type cls = Unsound | Imprecise | Internal

let cls_to_string = function
  | Unsound -> "UNSOUND"
  | Imprecise -> "IMPRECISE"
  | Internal -> "INTERNAL"

let stats_cls = function
  | Unsound -> "unsound"
  | Imprecise -> "imprecise"
  | Internal -> "internal"

type divergence = {
  d_case : string;
  d_family : string;
  d_strategy : string;
  d_class : cls;
  d_detail : string;
  d_ground : Problem.numeric;  (** Minimized when shrinking was on. *)
  d_replay : string;  (** [d_ground] as a [query] problem, in JSON. *)
}

let replay np = Dlz_serve.Jsonx.to_string (Dlz_serve.Proto.problem_to_json np)

type tally = {
  t_checks : int;
  t_agreements : int;
  t_imprecise : int;
  t_unknown : int;
  t_faults : int;
}

let zero_tally =
  { t_checks = 0; t_agreements = 0; t_imprecise = 0; t_unknown = 0;
    t_faults = 0 }

let add_tally a b =
  {
    t_checks = a.t_checks + b.t_checks;
    t_agreements = a.t_agreements + b.t_agreements;
    t_imprecise = a.t_imprecise + b.t_imprecise;
    t_unknown = a.t_unknown + b.t_unknown;
    t_faults = a.t_faults + b.t_faults;
  }

type report = {
  r_cases : int;
  r_tally : tally;
  r_divergences : divergence list;
      (** UNSOUND and INTERNAL only, sorted by (case, strategy). *)
}

(* The PR 3 fault taxonomy: anything a cascade is allowed to contain.
   A strategy raising outside this set is an INTERNAL divergence. *)
let taxonomy_fault = function
  | Intx.Overflow _ | Intx.Div_by_zero _ | Budget.Exhausted _
  | Stack_overflow | Chaos.Injected _ ->
      true
  | _ -> false

(* Witness-claiming strategies: their Dependent verdict asserts realized
   solutions, so exhaustive unsatisfiability contradicts it outright. *)
let claims_witness name = String.equal name "exact"

let numeric_distances distances =
  List.filter_map
    (fun (l, p) -> Option.map (fun c -> (l, c)) (Poly.to_const p))
    distances

(* Run one strategy on one case and classify the result against the
   oracle.  [oracle] is the case-level satisfiability verdict, computed
   once and shared; the full claim check re-enumerates only when the
   strategy actually decided. *)
let check_strategy ~budget_fuel ~limit ~oracle (case : Eqgen.case)
    (s : Strategy.t) =
  let budget = Budget.create ~fuel:budget_fuel () in
  let run () = s.run ~env:case.Eqgen.env ~budget case.Eqgen.problem in
  match run () with
  | Strategy.Pass -> (`Agree, None)
  | Strategy.Decided (verdict, dirvecs, distances) -> (
      let verdict = Verdict.conservative verdict in
      match (verdict, Lazy.force oracle) with
      | Verdict.Independent, Oracle.Sat w ->
          ( `Diverge,
            Some
              ( Unsound,
                "claimed independent; oracle solution "
                ^ Oracle.point_to_string w ) )
      | Verdict.Independent, Oracle.Unsat -> (`Agree, None)
      | Verdict.Independent, Oracle.Unknown _ ->
          (`Independent_unknown, None)
      | _, Oracle.Unsat ->
          if claims_witness s.Strategy.name then
            ( `Diverge,
              Some
                ( Internal,
                  "claims realized solutions but the system is exhaustively \
                   unsatisfiable" ) )
          else (`Imprecise, None)
      | _, Oracle.Sat _ -> (
          (* Verdicts agree; the direction and distance claims must
             admit every realized solution. *)
          match
            Oracle.verify ~budget:(Budget.create ~fuel:budget_fuel ())
              ~limit case.Eqgen.ground ~verdict ~dirvecs
              ~distances:(numeric_distances distances)
          with
          | Oracle.Consistent -> (`Agree, None)
          | Oracle.Violated v -> (`Diverge, Some (Unsound, v.Oracle.v_detail))
          | Oracle.Inconclusive _ -> (`Unknown, None))
      | _, Oracle.Unknown _ -> (`Unknown, None))
  | exception ((Out_of_memory | Sys.Break) as e) -> raise e
  | exception e when taxonomy_fault e -> (`Fault, None)
  | exception e ->
      ( `Diverge,
        Some (Internal, "exn:" ^ Printexc.to_string e) )

type outcome = {
  o_strategy : string;
  o_status : [ `Agree | `Imprecise | `Unknown | `Independent_unknown
             | `Fault | `Diverge ];
  o_diag : (cls * string) option;
}

let check_case ?stats ~budget_fuel ~limit (case : Eqgen.case) =
  let oracle =
    lazy
      (Oracle.decide ~budget:(Budget.create ~fuel:(budget_fuel * 4) ())
         ~limit case.Eqgen.ground)
  in
  let outcomes =
    List.filter_map
      (fun (s : Strategy.t) ->
        if not (s.applies ~env:case.Eqgen.env case.Eqgen.problem) then None
        else
          Trace.with_span ~cat:"oracle"
            ~args:[ ("case", case.Eqgen.id); ("strategy", s.Strategy.name) ]
            "oracle.check"
          @@ fun () ->
          (match stats with Some st -> Stats.record_oracle_check st | None -> ());
          let status, diag = check_strategy ~budget_fuel ~limit ~oracle case s in
          Some { o_strategy = s.Strategy.name; o_status = status; o_diag = diag })
      (Registry.all ())
  in
  (* Cross-check: when the oracle could not decide, a witnessed
     Dependent from the exact solver still convicts any Independent
     claim — the strategies are checked against each other. *)
  let outcomes =
    let oracle_unknown =
      match Lazy.force oracle with Oracle.Unknown _ -> true | _ -> false
    in
    if not oracle_unknown then outcomes
    else
      (* Probe the exact backtracking solver (smarter than the plain
         box scan: interval + gcd pruning) for a concrete witness. *)
      let ground_witness =
        match
          Dlz_deptest.Exact.solve
            ~budget:(Budget.create ~fuel:budget_fuel ())
            case.Eqgen.ground.Problem.eqs
        with
        | Dlz_deptest.Exact.Feasible w -> Some w
        | Dlz_deptest.Exact.Infeasible | Dlz_deptest.Exact.Unknown -> None
        | exception _ -> None
      in
      match ground_witness with
      | None -> outcomes
      | Some w ->
          List.map
            (fun o ->
              if o.o_status = `Independent_unknown then
                {
                  o with
                  o_status = `Diverge;
                  o_diag =
                    Some
                      ( Unsound,
                        "claimed independent; exact solver witness "
                        ^ Oracle.point_to_string w );
                }
              else o)
            outcomes
  in
  let tally =
    List.fold_left
      (fun t o ->
        let t = { t with t_checks = t.t_checks + 1 } in
        match o.o_status with
        | `Agree -> { t with t_agreements = t.t_agreements + 1 }
        | `Imprecise -> { t with t_imprecise = t.t_imprecise + 1 }
        | `Unknown | `Independent_unknown ->
            { t with t_unknown = t.t_unknown + 1 }
        | `Fault -> { t with t_faults = t.t_faults + 1 }
        | `Diverge -> t)
      zero_tally outcomes
  in
  let divergences =
    List.filter_map
      (fun o ->
        match o.o_diag with
        | Some (cls, detail) ->
            (match stats with
            | Some st ->
                Stats.record_divergence st o.o_strategy ~cls:(stats_cls cls)
            | None -> ());
            Some
              {
                d_case = case.Eqgen.id;
                d_family = case.Eqgen.family;
                d_strategy = o.o_strategy;
                d_class = cls;
                d_detail = detail;
                d_ground = case.Eqgen.ground;
                d_replay = replay case.Eqgen.ground;
              }
        | None -> None)
      outcomes
  in
  (tally, divergences)

(* The shrinking predicate replays the divergence classification on a
   candidate ground problem (lifted synthetically, empty assumptions):
   "still fails" means the same strategy diverges with the same class. *)
let replays_divergence ~budget_fuel ~limit (d : divergence) np =
  match Registry.find d.d_strategy with
  | None -> false
  | Some s -> (
      let case =
        {
          Eqgen.id = d.d_case; family = d.d_family;
          problem = Problem.synthetic np; ground = np;
          env = Dlz_symbolic.Assume.empty;
        }
      in
      let oracle =
        lazy
          (Oracle.decide ~budget:(Budget.create ~fuel:(budget_fuel * 4) ())
             ~limit np)
      in
      s.Strategy.applies ~env:case.Eqgen.env case.Eqgen.problem
      &&
      match check_strategy ~budget_fuel ~limit ~oracle case s with
      | `Diverge, Some (cls, _) -> cls = d.d_class
      | _ -> false)

let shrink_divergence ~budget_fuel ~limit (d : divergence) =
  let still_fails = replays_divergence ~budget_fuel ~limit d in
  if not (still_fails d.d_ground) then d
  else
    let ground = Shrink.minimize ~still_fails d.d_ground in
    { d with d_ground = ground; d_replay = replay ground }

let default_fuel = 200_000
let default_limit = 20_000

let run ?stats ?pool ?(fuel = default_fuel) ?(limit = default_limit)
    ?(shrink = false) cases =
  let arr = Array.of_list cases in
  let check case = check_case ?stats ~budget_fuel:fuel ~limit case in
  let results =
    match pool with
    | None -> Array.map check arr
    | Some p -> Pool.map p check arr
  in
  let tally =
    Array.fold_left (fun acc (t, _) -> add_tally acc t) zero_tally results
  in
  let divergences =
    Array.to_list results |> List.concat_map snd
    |> List.map (fun d ->
           if shrink && (d.d_class = Unsound || d.d_class = Internal) then
             shrink_divergence ~budget_fuel:fuel ~limit d
           else d)
    |> List.sort (fun a b ->
           match String.compare a.d_case b.d_case with
           | 0 -> String.compare a.d_strategy b.d_strategy
           | c -> c)
  in
  { r_cases = Array.length arr; r_tally = tally; r_divergences = divergences }

let count_class report cls =
  List.length (List.filter (fun d -> d.d_class = cls) report.r_divergences)

let report_to_string report =
  let buf = Buffer.create 1024 in
  let t = report.r_tally in
  Buffer.add_string buf
    (Printf.sprintf
       "cases %d  checks %d  agree %d  imprecise %d  unknown %d  faults %d\n"
       report.r_cases t.t_checks t.t_agreements t.t_imprecise t.t_unknown
       t.t_faults);
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %s: %s\n" (cls_to_string d.d_class) d.d_strategy
           d.d_case d.d_detail);
      Buffer.add_string buf d.d_replay;
      Buffer.add_char buf '\n')
    report.r_divergences;
  Buffer.add_string buf
    (Printf.sprintf "summary: %d UNSOUND, %d INTERNAL\n"
       (count_class report Unsound) (count_class report Internal));
  Buffer.contents buf
