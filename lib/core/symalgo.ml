open Dlz_base
module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Symeq = Dlz_deptest.Symeq
module Depeq = Dlz_deptest.Depeq
module Problem = Dlz_deptest.Problem
module Hierarchy = Dlz_deptest.Hierarchy

type step = {
  k : int;
  coeff : Poly.t option;
  smin : Poly.t;
  smax : Poly.t;
  gk : Poly.t option;
  r : Poly.t;
  barrier : bool;
  separated : Symeq.t option;
}

type result = {
  verdict : Verdict.t;
  pieces : Symeq.t list;
  dirvecs : Dirvec.Set.t;
  distances : (int * Poly.t) list;
  steps : step list;
}

(* |x| < g without needing the sign of x: x < g and -x < g. *)
let abs_lt env x g = Assume.lt env x g && Assume.lt env (Poly.neg x) g

(* Terms by (provable) ascending absolute coefficient, by a
   degree/content heuristic where [env] cannot order two (the order
   affects precision only: every step re-checks the barrier).  Each
   coefficient's [Assume.abs] is computed once, before the sort, not in
   every comparison; a comparison is one sign decision on the difference
   ([Zero] exactly when the two are equal). *)
let sort_terms env (eq : Symeq.t) =
  match eq.terms with
  | [] | [ _ ] -> eq
  | terms ->
      let heuristic c = (Poly.degree c, Intx.abs (Poly.content c)) in
      let cmp (a1, (c1, _)) (a2, (c2, _)) =
        let by_heuristic () = Stdlib.compare (heuristic c1) (heuristic c2) in
        match (a1, a2) with
        | Some a1, Some a2 -> (
            match Assume.sign env (Poly.sub a2 a1) with
            | Assume.Positive -> -1
            | Assume.Negative -> 1
            | Assume.Zero -> 0
            | Assume.Unknown -> by_heuristic ())
        | _ -> by_heuristic ()
      in
      let keyed = List.map (fun ((c, _) as t) -> (Assume.abs env c, t)) terms in
      { eq with terms = List.map snd (List.stable_sort cmp keyed) }

(* Residue of c0 modulo a single-term g.  For fully numeric data, shift
   into the representative closest to -(smin+smax)/2, as the numeric
   algorithm does; otherwise the canonical remainder of the monomial
   division. *)
let residue ~smin ~smax c0 g =
  match Poly.divmod_by_term c0 g with
  | None -> c0 (* not a single term: cannot divide, keep everything *)
  | Some (_, r) -> (
      match (Poly.to_const r, Poly.to_const g, Poly.to_const smin, Poly.to_const smax) with
      | Some rc, Some gc, Some lo, Some hi when gc > 0 ->
          let target = -Numth.fdiv (Intx.add lo hi) 2 in
          Poly.const (Numth.nearest_residue rc gc target)
      | _ -> r)

(* Feasibility of β - α = d within bounds β ≤ ub_dst, α ≤ ub_src:
   infeasible if d > ub_dst or -d > ub_src. *)
let delta_feasible env ~ub_src ~ub_dst d =
  not (Assume.lt env ub_dst d || Assume.lt env ub_src (Poly.neg d))

(* Direction-vector solving for one separated symbolic equation: exact
   for numeric pieces (via the classic techniques), pattern-based for
   the symbolic shapes linearized subscripts produce (single variable,
   and [c·x - c·y + r = 0] pairs, which also yield symbolic
   distances). *)
let solve_piece ~env ~n_common (piece : Symeq.t) =
  let maybe = (Verdict.Dependent, Dirvec.Set.all_star n_common, None) in
  let independent = (Verdict.Independent, Dirvec.Set.empty n_common, None) in
  let numeric_common_ubs () = Array.make n_common max_int in
  match Symeq.to_numeric piece with
  | Some neq ->
      let nv =
        Hierarchy.directions
          (Problem.numeric_of_equations ~n_common
             ~common_ubs:(numeric_common_ubs ()) [ neq ])
      in
      if Dirvec.Set.is_empty nv then independent
      else
        let dist =
          match Algo.piece_distance neq with
          | Some (lvl, d) -> Some (lvl, Poly.const d)
          | None -> None
        in
        (Verdict.Dependent, nv, dist)
  | None -> (
      match piece.terms with
      | [] -> (
          match Assume.sign env piece.c0 with
          | Assume.Zero -> maybe
          | Assume.Positive | Assume.Negative -> independent
          | Assume.Unknown -> maybe)
      | [ (c, v) ] -> (
          (* c·z + r = 0. *)
          match Poly.divmod_by_term (Poly.neg piece.c0) c with
          | Some (q, rem) when Poly.is_zero rem ->
              (* z = q must lie in [0, ub]. *)
              if Assume.is_neg env q || Assume.lt env v.s_ub q then independent
              else maybe
          | _ -> maybe)
      | [ (c1, v1); (c2, v2) ]
        when v1.s_level = v2.s_level && v1.s_level > 0
             && v1.s_side <> v2.s_side
             && Poly.equal c1 (Poly.neg c2) -> (
          (* r + a·α - a·β = 0 with a the source coefficient:
             β - α = r / a. *)
          let a, ub_src, ub_dst =
            if v1.s_side = `Src then (c1, v1.s_ub, v2.s_ub)
            else (c2, v2.s_ub, v1.s_ub)
          in
          let d_opt =
            if Poly.is_zero piece.c0 then Some Poly.zero
            else
              match Poly.divmod_by_term piece.c0 a with
              | Some (q, rem) when Poly.is_zero rem -> Some q
              | _ -> None
          in
          match d_opt with
          | None -> maybe
          | Some d ->
              if not (delta_feasible env ~ub_src ~ub_dst d) then independent
              else
                let lvl = v1.s_level in
                let dir =
                  match Assume.sign env d with
                  | Assume.Zero -> Some Dirvec.Eq
                  | Assume.Positive -> Some Dirvec.Lt
                  | Assume.Negative -> Some Dirvec.Gt
                  | Assume.Unknown -> None
                in
                let nv =
                  match dir with
                  | Some dir when lvl <= n_common ->
                      let dv = Dirvec.all_star n_common in
                      dv.(lvl - 1) <- dir;
                      Dirvec.Set.singleton dv
                  | _ -> Dirvec.Set.all_star n_common
                in
                (Verdict.Dependent, nv, Some (lvl, d)))
      | _ -> maybe)

let run ?(check_independence = true) ~env ~n_common (eq : Symeq.t) =
  let eq = sort_terms env eq in
  let terms = Array.of_list eq.terms in
  let n = Array.length terms in
  (* Suffix "simple" gcds. *)
  let g = Array.make (n + 1) Poly.zero in
  for k = n - 1 downto 0 do
    g.(k) <- Poly.gcd_simple (fst terms.(k)) g.(k + 1)
  done;
  let steps = ref [] in
  let pieces = ref [] in
  let distances = ref [] in
  let dirvecs = ref (Dirvec.Set.all_star n_common) in
  let independent = ref false in
  let smin = ref Poly.zero and smax = ref Poly.zero in
  let poisoned = ref false in
  let kbeg = ref 0 in
  let c0 = ref eq.c0 in
  let k = ref 0 in
  while (not !independent) && !k <= n do
    let gk = if !k < n then Some g.(!k) else None in
    let r =
      match gk with
      | None -> !c0
      | Some g -> residue ~smin:!smin ~smax:!smax !c0 g
    in
    let cmin = Poly.add !smin r and cmax = Poly.add !smax r in
    let barrier =
      match gk with
      | None -> true
      | Some g ->
          (not !poisoned) && abs_lt env cmin g && abs_lt env cmax g
    in
    let separated = ref None in
    if barrier then begin
      if
        check_independence && (not !poisoned)
        && (Assume.is_pos env cmin || Assume.is_neg env cmax)
      then independent := true
      else begin
        let group = Array.to_list (Array.sub terms !kbeg (!k - !kbeg)) in
        if not (group = [] && Poly.is_zero r) then begin
          let piece = Symeq.make r group in
          separated := Some piece;
          pieces := piece :: !pieces;
          if check_independence then begin
            let v, nv, dist = solve_piece ~env ~n_common piece in
            (match dist with
            | Some (lvl, d) -> distances := (lvl, d) :: !distances
            | None -> ());
            if v = Verdict.Independent then independent := true
            else begin
              dirvecs := Dirvec.Set.meet !dirvecs nv;
              if Dirvec.Set.is_empty !dirvecs then independent := true
            end
          end
        end;
        smin := Poly.zero;
        smax := Poly.zero;
        poisoned := false;
        kbeg := !k;
        c0 := Poly.sub !c0 r
      end
    end;
    steps :=
      {
        k = !k + 1;
        coeff = (if !k < n then Some (fst terms.(!k)) else None);
        smin = !smin;
        smax = !smax;
        gk;
        r;
        barrier;
        separated = !separated;
      }
      :: !steps;
    if (not !independent) && !k < n then begin
      let c, v = terms.(!k) in
      let contrib = Poly.mul c v.Symeq.s_ub in
      match Assume.sign env c with
      | Assume.Positive -> smax := Poly.add !smax contrib
      | Assume.Negative -> smin := Poly.add !smin contrib
      | Assume.Zero -> ()
      | Assume.Unknown -> poisoned := true
    end;
    incr k
  done;
  let verdict =
    if !independent then Verdict.Independent else Verdict.Dependent
  in
  {
    verdict;
    pieces = List.rev !pieces;
    dirvecs =
      (if !independent then Dirvec.Set.empty n_common else !dirvecs);
    distances = List.rev !distances;
    steps = List.rev !steps;
  }

let step_table steps =
  let t =
    Table.create
      [ "k"; "c_Ik"; "smin"; "smax"; "g_k"; "r"; "separated equation" ]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [
          string_of_int s.k;
          (match s.coeff with Some c -> Poly.to_string c | None -> "-");
          Poly.to_string s.smin;
          Poly.to_string s.smax;
          (match s.gk with Some g -> Poly.to_string g | None -> "inf");
          Poly.to_string s.r;
          (match s.separated with
          | Some piece -> Format.asprintf "%a" Symeq.pp piece
          | None when not s.barrier -> ""
          | None ->
              if Poly.is_zero s.r then "(trivial 0 = 0)" else "(independent)");
        ])
    steps;
  t

(* --- one equation of a dependence problem -------------------------------- *)

type outcome =
  | Numeric of Depeq.t * Algo.result
  | Symbolic of result
  | Overflow of string

let numeric_common_ubs (p : Problem.t) =
  let rec go acc = function
    | [] -> Some (Array.of_list (List.rev acc))
    | u :: rest -> (
        match Poly.to_const u with
        | Some c -> go (c :: acc) rest
        | None -> None)
  in
  go [] p.common_ubs

let equation ~env (p : Problem.t) =
  let n_common = p.n_common in
  let common_ubs = numeric_common_ubs p in
  fun eq ->
    try
      match (Symeq.to_numeric eq, common_ubs) with
      | Some neq, Some common_ubs ->
          let neq = Algo.reduced neq in
          Numeric (neq, Algo.run ~n_common ~common_ubs neq)
      | _ -> Symbolic (run ~env ~n_common eq)
    with Intx.Overflow op -> Overflow op

let answer ~n_common = function
  | Numeric (_, r) ->
      ( r.Algo.verdict,
        r.Algo.dirvecs,
        List.map (fun (l, d) -> (l, Poly.const d)) r.Algo.distances )
  | Symbolic r -> (r.verdict, r.dirvecs, r.distances)
  | Overflow _ ->
      (* Coefficient/bound products past 63 bits: degrade soundly. *)
      (Verdict.Dependent, Dirvec.Set.all_star n_common, [])
