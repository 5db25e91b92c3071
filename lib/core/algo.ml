open Dlz_base
module Depeq = Dlz_deptest.Depeq
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Problem = Dlz_deptest.Problem
module Hierarchy = Dlz_deptest.Hierarchy

type residue_policy = Nonneg | Symmetric | Optimal

type step = {
  k : int;
  coeff : int option;
  smin : int;
  smax : int;
  gk : int option;
  r : int;
  barrier : bool;
  separated : Depeq.t option;
}

type result = {
  verdict : Verdict.t;
  pieces : Depeq.t list;
  dirvecs : Dirvec.Set.t;
  distances : (int * int) list;
  steps : step list;
}

let sort_terms (eq : Depeq.t) =
  {
    eq with
    terms =
      List.stable_sort
        (fun (a : Depeq.term) (b : Depeq.term) ->
          Int.compare (Intx.abs a.coeff) (Intx.abs b.coeff))
        eq.terms;
  }

let residue policy ~smin ~smax c0 g =
  match policy with
  | Nonneg -> Numth.fmod c0 g
  | Symmetric -> Numth.symmetric_mod c0 g
  | Optimal ->
      (* Center the piece's value interval around zero. *)
      let target = -Numth.fdiv (Intx.add smin smax) 2 in
      Numth.nearest_residue c0 g target

(* Exact distance carried by a separated pair equation
   r + a*α - a*β = 0: β - α = r/a when divisible. *)
let piece_distance (piece : Depeq.t) =
  match piece.terms with
  | [ t1; t2 ]
    when t1.var.v_level = t2.var.v_level
         && t1.var.v_level > 0
         && t1.var.v_side <> t2.var.v_side
         && t1.coeff = Intx.neg t2.coeff ->
      let a, lvl =
        if t1.var.v_side = `Src then (t1.coeff, t1.var.v_level)
        else (t2.coeff, t2.var.v_level)
      in
      if Numth.divides a piece.c0 then Some (lvl, piece.c0 / a) else None
  | _ -> None

(* The equation divided by the gcd of its coefficients and constant, as
   the cache key divides it.  The solutions are the same, so the answer
   cannot depend on which of two same-key problems is solved; a common
   factor near max_int would otherwise overflow the scan. *)
let reduced (eq : Depeq.t) =
  let g = Numth.gcd_list (eq.c0 :: Depeq.coeffs eq) in
  if g <= 1 then eq
  else
    {
      c0 = eq.c0 / g;
      terms =
        List.map (fun (t : Depeq.term) -> { t with coeff = t.coeff / g })
          eq.terms;
    }

(* The Figure-4 scan of [eq].  [separate piece] is called at each
   barrier that singles out an equation and answers whether the scan
   ends there as independent; [record], when given, receives every
   step.  Returns whether the scan ended independent (by the inline
   check or by [separate]).  An overflow propagates from the step it
   happens in. *)
let scan ~policy ?record ~separate eq =
  let eq = sort_terms eq in
  let terms = Array.of_list eq.terms in
  let n = Array.length terms in
  (* Suffix gcds of the sorted coefficients. *)
  let g = Array.make (n + 1) 0 in
  for k = n - 1 downto 0 do
    g.(k) <- Numth.gcd terms.(k).coeff g.(k + 1)
  done;
  let independent = ref false in
  let smin = ref 0 and smax = ref 0 in
  let kbeg = ref 0 in
  let c0 = ref eq.c0 in
  let k = ref 0 in
  while (not !independent) && !k <= n do
    let last = !k = n in
    let r =
      if last then !c0 else residue policy ~smin:!smin ~smax:!smax !c0 g.(!k)
    in
    let cmin = Intx.add !smin r and cmax = Intx.add !smax r in
    let barrier = last || max (Intx.abs cmin) (Intx.abs cmax) < g.(!k) in
    let separated = ref None in
    if barrier then begin
      if cmin > 0 || cmax < 0 then independent := true
      else begin
        if not (!k = !kbeg && r = 0) then begin
          let group =
            List.init (!k - !kbeg) (fun i ->
                let t = terms.(!kbeg + i) in
                (t.coeff, t.var))
          in
          let piece = Depeq.make r group in
          separated := Some piece;
          if separate piece then independent := true
        end;
        smin := 0;
        smax := 0;
        kbeg := !k;
        c0 := Intx.sub !c0 r
      end
    end;
    (match record with
    | None -> ()
    | Some record ->
        record
          {
            k = !k + 1;
            coeff = (if last then None else Some terms.(!k).coeff);
            smin = !smin;
            smax = !smax;
            gk = (if last then None else Some g.(!k));
            r;
            barrier;
            separated = !separated;
          });
    if (not !independent) && not last then begin
      let t = terms.(!k) in
      smin := Intx.add !smin (Intx.mul (Intx.neg_part t.coeff) t.var.v_ub);
      smax := Intx.add !smax (Intx.mul (Intx.pos_part t.coeff) t.var.v_ub)
    end;
    incr k
  done;
  !independent

let walk ~n_common ~common_ubs pieces =
  Hierarchy.directions
    (Problem.numeric_of_equations ~n_common ~common_ubs pieces)

let add_distance distances piece =
  match piece_distance piece with
  | Some d -> d :: distances
  | None -> distances

let run ?(policy = Optimal) ~n_common ~common_ubs eq =
  let steps = ref [] in
  let pieces = ref [] in
  let distances = ref [] in
  let dirvecs = ref (Dirvec.Set.all_star n_common) in
  let separate piece =
    pieces := piece :: !pieces;
    distances := add_distance !distances piece;
    dirvecs :=
      Dirvec.Set.meet !dirvecs (walk ~n_common ~common_ubs [ piece ]);
    Dirvec.Set.is_empty !dirvecs
  in
  let independent =
    scan ~policy ~record:(fun s -> steps := s :: !steps) ~separate eq
  in
  {
    verdict = (if independent then Verdict.Independent else Verdict.Dependent);
    pieces = List.rev !pieces;
    dirvecs = (if independent then Dirvec.Set.empty n_common else !dirvecs);
    distances = List.sort_uniq Stdlib.compare !distances;
    steps = List.rev !steps;
  }

(* --- a whole numeric problem: one hierarchy walk ------------------------ *)

(* What one equation adds to the problem's answer. *)
type contribution =
  | Pieces of Depeq.t list  (** Its pieces, walked with the others'. *)
  | Walked of Dirvec.Set.t * Depeq.t list
      (** [run]'s vectors, met from its pieces' own walks, and the
          pieces. *)
  | Nothing  (** It overflowed: dependent in every direction. *)
  | Settles  (** It is independent. *)

(* [run]'s answer for one equation, without its steps.  The scan does
   not stop at a piece that walks empty, so [run] may have stopped
   before an overflow or an inline independence this scan reaches: the
   pieces separated before either still decide.  A joint walk could
   skip the node where a piece's own walk overflows, so an equation
   with a piece that might overflow takes [run]'s answer. *)
let contribution ~policy ~n_common ~common_ubs eq =
  let pieces = ref [] and safe = ref true in
  let separate piece =
    pieces := piece :: !pieces;
    safe := !safe && Hierarchy.bounded piece;
    false
  in
  let ends =
    match scan ~policy ~separate (reduced eq) with
    | independent -> Some independent
    | exception Intx.Overflow _ -> None
  in
  let pieces = List.rev !pieces in
  if not !safe then
    match run ~policy ~n_common ~common_ubs (reduced eq) with
    | r when r.verdict = Verdict.Independent -> Settles
    | r -> Walked (r.dirvecs, r.pieces)
    | exception Intx.Overflow _ -> Nothing
  else
    match ends with
    | Some true -> Settles
    | Some false -> Pieces pieces
    | None ->
        if
          pieces <> []
          && Dirvec.Set.is_empty (walk ~n_common ~common_ubs pieces)
        then Settles
        else Nothing

let solve ?(policy = Optimal) ?(budget = Budget.unlimited)
    (np : Problem.numeric) =
  let n_common = np.n_common and common_ubs = np.common_ubs in
  (* The contributions up to the first that settles. *)
  let rec gather = function
    | [] -> []
    | eq :: rest -> (
        match contribution ~policy ~n_common ~common_ubs eq with
        | Settles -> [ Settles ]
        | c -> c :: gather rest)
  in
  let cs = gather np.eqs in
  let count = List.length cs in
  let vectors cs =
    let pieces = List.concat_map (function Pieces ps -> ps | _ -> []) cs in
    List.fold_left
      (fun dvs -> function Walked (s, _) -> Dirvec.Set.meet dvs s | _ -> dvs)
      (if pieces = [] then Dirvec.Set.all_star n_common
       else walk ~n_common ~common_ubs pieces)
      cs
  in
  let spend k =
    for _ = 1 to k do
      Budget.spend budget
    done
  in
  let dvs =
    if List.exists (function Settles -> true | _ -> false) cs then
      Dirvec.Set.empty n_common
    else vectors cs
  in
  if Dirvec.Set.is_empty dvs then begin
    (* Up to the first equation whose prefix leaves no vector; only
       fuel can tell, so it is looked for only when there is fuel. *)
    let rec settling k =
      if
        k = count
        || Dirvec.Set.is_empty (vectors (List.filteri (fun i _ -> i < k) cs))
      then k
      else settling (k + 1)
    in
    spend (if Budget.remaining_fuel budget = None then count else settling 1);
    (Verdict.Independent, dvs, [])
  end
  else begin
    spend count;
    let distances =
      List.fold_left
        (fun ds -> function
          | Pieces ps | Walked (_, ps) -> List.fold_left add_distance ds ps
          | Nothing | Settles -> ds)
        [] cs
    in
    (Verdict.Dependent, dvs, List.sort_uniq Stdlib.compare distances)
  end

(* Independence-only scan: the inline Banerjee check plus the per-piece
   gcd check, never invoking a direction-vector solver. *)
let test ?(policy = Optimal) eq =
  let separate (piece : Depeq.t) =
    not (Numth.divides (Numth.gcd_list (Depeq.coeffs piece)) piece.c0)
  in
  if scan ~policy ~separate eq then Verdict.Independent else Verdict.Dependent

let step_table steps =
  let t =
    Table.create
      ~aligns:Table.[ Right; Right; Right; Right; Right; Right; Left ]
      [ "k"; "c_Ik"; "smin"; "smax"; "g_k"; "r"; "separated equation" ]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [
          string_of_int s.k;
          (match s.coeff with Some c -> string_of_int c | None -> "-");
          string_of_int s.smin;
          string_of_int s.smax;
          (match s.gk with Some g -> string_of_int g | None -> "inf");
          string_of_int s.r;
          (match s.separated with
          | Some p -> Depeq.to_string p
          | None when not s.barrier -> ""
          | None -> if s.r = 0 then "(trivial 0 = 0)" else "(independent)");
        ])
    steps;
  t
