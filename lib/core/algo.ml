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

let run ?(policy = Optimal) ~n_common ~common_ubs eq =
  let eq = sort_terms eq in
  let terms = Array.of_list eq.terms in
  let n = Array.length terms in
  (* Suffix gcds of the sorted coefficients. *)
  let g = Array.make (n + 1) 0 in
  for k = n - 1 downto 0 do
    g.(k) <- Numth.gcd terms.(k).coeff g.(k + 1)
  done;
  let steps = ref [] in
  let pieces = ref [] in
  let distances = ref [] in
  let dirvecs = ref (Dirvec.Set.all_star n_common) in
  let independent = ref false in
  let smin = ref 0 and smax = ref 0 in
  let kbeg = ref 0 in
  let c0 = ref eq.c0 in
  let k = ref 0 in
  while (not !independent) && !k <= n do
    let gk = if !k < n then Some g.(!k) else None in
    let r =
      match gk with
      | None -> !c0
      | Some g -> residue policy ~smin:!smin ~smax:!smax !c0 g
    in
    let cmin = Intx.add !smin r and cmax = Intx.add !smax r in
    let barrier =
      match gk with
      | None -> true
      | Some g -> max (Intx.abs cmin) (Intx.abs cmax) < g
    in
    let separated = ref None in
    if barrier then begin
      if cmin > 0 || cmax < 0 then independent := true
      else begin
        let group =
          Array.to_list (Array.sub terms !kbeg (!k - !kbeg))
          |> List.map (fun (t : Depeq.term) -> (t.coeff, t.var))
        in
        if not (group = [] && r = 0) then begin
          let piece = Depeq.make r group in
          separated := Some piece;
          pieces := piece :: !pieces;
          (match piece_distance piece with
          | Some (lvl, d) -> distances := (lvl, d) :: !distances
          | None -> ());
          let nv =
            Hierarchy.directions
              (Problem.numeric_of_equations ~n_common ~common_ubs [ piece ])
          in
          dirvecs := Dirvec.Set.meet !dirvecs nv;
          if Dirvec.Set.is_empty !dirvecs then independent := true
        end;
        smin := 0;
        smax := 0;
        kbeg := !k;
        c0 := Intx.sub !c0 r
      end
    end;
    steps :=
      {
        k = !k + 1;
        coeff = (if !k < n then Some terms.(!k).coeff else None);
        smin = !smin;
        smax = !smax;
        gk;
        r;
        barrier;
        separated = !separated;
      }
      :: !steps;
    if (not !independent) && !k < n then begin
      let t = terms.(!k) in
      smin := Intx.add !smin (Intx.mul (Intx.neg_part t.coeff) t.var.v_ub);
      smax := Intx.add !smax (Intx.mul (Intx.pos_part t.coeff) t.var.v_ub)
    end;
    incr k
  done;
  let verdict =
    if !independent then Verdict.Independent else Verdict.Dependent
  in
  let dirvecs =
    if !independent then Dirvec.Set.empty n_common else !dirvecs
  in
  {
    verdict;
    pieces = List.rev !pieces;
    dirvecs;
    distances = List.sort_uniq Stdlib.compare !distances;
    steps = List.rev !steps;
  }

(* Independence-only scan: the inline Banerjee check plus the per-piece
   gcd check, never invoking a direction-vector solver. *)
let test ?(policy = Optimal) eq =
  let eq = sort_terms eq in
  let terms = Array.of_list eq.terms in
  let n = Array.length terms in
  let g = Array.make (n + 1) 0 in
  for k = n - 1 downto 0 do
    g.(k) <- Numth.gcd terms.(k).coeff g.(k + 1)
  done;
  let exception Indep in
  try
    let smin = ref 0 and smax = ref 0 in
    let kbeg = ref 0 in
    let c0 = ref eq.c0 in
    for k = 0 to n do
      let gk = if k < n then Some g.(k) else None in
      let r =
        match gk with
        | None -> !c0
        | Some g -> residue policy ~smin:!smin ~smax:!smax !c0 g
      in
      let cmin = Intx.add !smin r and cmax = Intx.add !smax r in
      let barrier =
        match gk with
        | None -> true
        | Some g -> max (Intx.abs cmin) (Intx.abs cmax) < g
      in
      if barrier then begin
        if cmin > 0 || cmax < 0 then raise Indep;
        let group_gcd =
          let acc = ref 0 in
          for l = !kbeg to k - 1 do
            acc := Numth.gcd !acc terms.(l).coeff
          done;
          !acc
        in
        if not (Numth.divides group_gcd r) then raise Indep;
        smin := 0;
        smax := 0;
        kbeg := k;
        c0 := Intx.sub !c0 r
      end;
      if k < n then begin
        let t = terms.(k) in
        smin := Intx.add !smin (Intx.mul (Intx.neg_part t.coeff) t.var.v_ub);
        smax := Intx.add !smax (Intx.mul (Intx.pos_part t.coeff) t.var.v_ub)
      end
    done;
    Verdict.Dependent
  with Indep -> Verdict.Independent

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
