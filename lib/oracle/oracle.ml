module Budget = Dlz_base.Budget
module Intx = Dlz_base.Intx
module Depeq = Dlz_deptest.Depeq
module Problem = Dlz_deptest.Problem
module Dirvec = Dlz_deptest.Dirvec

type point = (Depeq.var * int) list

type outcome = Sat of point | Unsat | Unknown of string

type violation = {
  v_kind : [ `Verdict | `Dirvec | `Distance ];
  v_point : point;
  v_detail : string;
}

type verification = Consistent | Violated of violation | Inconclusive of string

let default_limit = 2_000_000

(* The distinct variables of a numeric problem, keyed the way every
   test pairs them: (side, level).  The same key appearing in several
   equations with different bounds keeps the tightest one — that is the
   true iteration range of the shared loop variable, and every
   per-equation test sees a superset box, so independence verdicts stay
   comparable. *)
let variables (np : Problem.numeric) =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (eq : Depeq.t) ->
      List.iter
        (fun (t : Depeq.term) ->
          let v = t.Depeq.var in
          let key = (v.Depeq.v_side, v.Depeq.v_level) in
          match Hashtbl.find_opt tbl key with
          | Some (u : Depeq.var) ->
              if v.v_ub < u.v_ub then Hashtbl.replace tbl key { u with v_ub = v.v_ub }
          | None ->
              Hashtbl.add tbl key v;
              order := key :: !order)
        eq.Depeq.terms)
    np.Problem.eqs;
  Array.of_list (List.rev_map (Hashtbl.find tbl) !order)

(* Per-equation coefficient rows over the shared variable indexing. *)
let compile vars (np : Problem.numeric) =
  let n = Array.length vars in
  let index =
    let tbl = Hashtbl.create 16 in
    Array.iteri
      (fun i (v : Depeq.var) -> Hashtbl.replace tbl (v.v_side, v.v_level) i)
      vars;
    tbl
  in
  List.map
    (fun (eq : Depeq.t) ->
      let cs = Array.make n 0 in
      List.iter
        (fun (t : Depeq.term) ->
          let i = Hashtbl.find index (t.Depeq.var.v_side, t.Depeq.var.v_level) in
          cs.(i) <- cs.(i) + t.Depeq.coeff)
        eq.Depeq.terms;
      (eq.Depeq.c0, cs))
    np.Problem.eqs

let point_of vars vals =
  Array.to_list (Array.mapi (fun i v -> (v, vals.(i))) vars)

(* Number of box points, or [None] past [cap]. *)
let box_points vars cap =
  let rec go i acc =
    if i >= Array.length vars then Some acc
    else
      let w = vars.(i).Depeq.v_ub + 1 in
      if acc > cap / w then None else go (i + 1) (acc * w)
  in
  go 0 1

type scan = {
  s_found : point option;  (** set when [f] stopped the scan *)
  s_skipped : int;  (** points whose evaluation overflowed *)
  s_complete : bool;
  s_reason : string;  (** why incomplete (when [s_complete = false]) *)
}

(* Exhaustive odometer scan.  [f] receives each integer solution and
   returns [true] to continue; returning [false] records the point and
   stops.  A point whose left-hand side overflows native ints is
   counted in [s_skipped]: its membership is unknown, so completeness
   claims must account for it. *)
let scan ?(budget = Budget.unlimited) ?(limit = default_limit) np ~f =
  let vars = variables np in
  let rows = compile vars np in
  match box_points vars limit with
  | None -> { s_found = None; s_skipped = 0; s_complete = false; s_reason = "limit" }
  | Some _ ->
      let n = Array.length vars in
      let vals = Array.make n 0 in
      let skipped = ref 0 in
      let found = ref None in
      let eval_all () =
        (* [`Sol | `No | `Over] for this assignment. *)
        try
          if
            List.for_all
              (fun (c0, cs) ->
                let acc = ref c0 in
                for i = 0 to n - 1 do
                  if cs.(i) <> 0 then
                    acc := Intx.add !acc (Intx.mul cs.(i) vals.(i))
                done;
                !acc = 0)
              rows
          then `Sol
          else `No
        with Intx.Overflow _ -> `Over
      in
      let rec bump i =
        (* Advance the odometer; [false] when the box is exhausted. *)
        if i < 0 then false
        else if vals.(i) < vars.(i).Depeq.v_ub then begin
          vals.(i) <- vals.(i) + 1;
          true
        end
        else begin
          vals.(i) <- 0;
          bump (i - 1)
        end
      in
      let result =
        try
          let continue = ref true in
          while !continue do
            Budget.spend budget;
            (match eval_all () with
            | `Sol ->
                if not (f (point_of vars vals)) then begin
                  found := Some (point_of vars vals);
                  continue := false
                end
            | `Over -> incr skipped
            | `No -> ());
            if !continue then continue := bump (n - 1)
          done;
          { s_found = !found; s_skipped = !skipped; s_complete = true;
            s_reason = "" }
        with Budget.Exhausted why ->
          { s_found = None; s_skipped = !skipped; s_complete = false;
            s_reason = "budget:" ^ why }
      in
      result

let decide ?budget ?limit np =
  let r = scan ?budget ?limit np ~f:(fun _ -> false) in
  match r.s_found with
  | Some w -> Sat w
  | None ->
      if not r.s_complete then Unknown r.s_reason
      else if r.s_skipped > 0 then Unknown "overflow"
      else Unsat

(* Realized direction/distance of one solution at one 1-based common
   level: [β − α] with β the destination instance.  [None] when the
   solution does not bind both instances (an unconstrained level admits
   any direction, so nothing can be checked against it). *)
let delta_at point level =
  let value side =
    List.find_map
      (fun ((v : Depeq.var), x) ->
        if v.v_side = side && v.v_level = level then Some x else None)
      point
  in
  match (value `Src, value `Dst) with
  | Some a, Some b -> Some (b - a)
  | _ -> None

let admitted_by dirvecs point n_common =
  dirvecs = []
  || List.exists
       (fun (dv : Dirvec.t) ->
         let ok = ref true in
         Array.iteri
           (fun i d ->
             if i < n_common then
               match delta_at point (i + 1) with
               | Some delta -> if not (Dirvec.admits d delta) then ok := false
               | None -> ())
           dv;
         !ok)
       dirvecs

let distances_hold distances point =
  List.for_all
    (fun (level, d) ->
      match delta_at point level with
      | Some delta -> delta = d
      | None -> true)
    distances

let point_to_string point =
  Format.asprintf "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf ((v : Depeq.var), x) ->
         Format.fprintf ppf "%s=%d" v.v_name x))
    point

let verify ?budget ?limit (np : Problem.numeric) ~verdict ~dirvecs ~distances =
  let module Verdict = Dlz_deptest.Verdict in
  let violation = ref None in
  let check point =
    if verdict = Verdict.Independent then begin
      violation :=
        Some
          {
            v_kind = `Verdict;
            v_point = point;
            v_detail = "claimed independent, solution " ^ point_to_string point;
          };
      false
    end
    else if not (admitted_by dirvecs point np.Problem.n_common) then begin
      violation :=
        Some
          {
            v_kind = `Dirvec;
            v_point = point;
            v_detail =
              "solution " ^ point_to_string point
              ^ " admitted by no claimed direction vector";
          };
      false
    end
    else if not (distances_hold distances point) then begin
      violation :=
        Some
          {
            v_kind = `Distance;
            v_point = point;
            v_detail =
              "solution " ^ point_to_string point
              ^ " contradicts a claimed distance";
          };
      false
    end
    else true
  in
  let r = scan ?budget ?limit np ~f:check in
  match !violation with
  | Some v -> Violated v
  | None ->
      if not r.s_complete then Inconclusive r.s_reason
      else if r.s_skipped > 0 then Inconclusive "overflow"
      else Consistent
