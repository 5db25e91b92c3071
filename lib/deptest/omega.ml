open Dlz_base

type result = Sat | Unsat | Unknown

type row = { cs : int array; k : int }
(* A row is Σ cs.(i)·x_i + k, constrained to = 0 (equality) or ≥ 0. *)

type sys = { nv : int; eqs : row list; ineqs : row list }

let row_map f r = { r with cs = Array.map f r.cs }

let grow nv r =
  if Array.length r.cs = nv then r
  else
    {
      r with
      cs = Array.init nv (fun i -> if i < Array.length r.cs then r.cs.(i) else 0);
    }

(* Substitute x_v := Σ combo·x + c0 in a row. *)
let subst_row v combo c0 r =
  let a = r.cs.(v) in
  if a = 0 then r
  else begin
    let cs = Array.copy r.cs in
    cs.(v) <- 0;
    Array.iteri
      (fun i c -> cs.(i) <- Intx.add cs.(i) (Intx.mul a c))
      combo;
    { cs; k = Intx.add r.k (Intx.mul a c0) }
  end

let normalize_eq r =
  let g = Numth.gcd_list (Array.to_list r.cs) in
  if g = 0 then if r.k = 0 then `Trivial else `Contradiction
  else if not (Numth.divides g r.k) then `Contradiction
  else `Row (row_map (fun c -> c / g) { r with k = r.k / g })

let nonzero_indices r =
  let acc = ref [] in
  Array.iteri (fun i c -> if c <> 0 then acc := i :: !acc) r.cs;
  List.rev !acc

(* Eliminate all equalities by exact substitutions. *)
let rec elim_eqs budget sys =
  Budget.spend budget;
  match sys.eqs with
  | [] -> `Go sys
  | e :: rest -> (
      match normalize_eq e with
      | `Trivial -> elim_eqs budget { sys with eqs = rest }
      | `Contradiction -> `Unsat
      | `Row e -> (
          match nonzero_indices e with
          | [] -> assert false
          | [ i ] ->
              (* ±x_i + k = 0: substitute the constant. *)
              let value = if e.cs.(i) = 1 then -e.k else e.k in
              let combo = Array.make sys.nv 0 in
              let sub = subst_row i combo value in
              elim_eqs budget
                {
                  sys with
                  eqs = List.map sub rest;
                  ineqs = List.map sub sys.ineqs;
                }
          | i :: j :: _ ->
              (* Unimodular reduction of the (x_i, x_j) pair:
                 with g = gcd(a,b) and p·(a/g) + q·(b/g) = 1,
                 x_i = p·u - (b/g)·v and x_j = q·u + (a/g)·v is an
                 integer bijection mapping a·x_i + b·x_j to g·u. *)
              let a = e.cs.(i) and b = e.cs.(j) in
              let g, p, q = Numth.egcd a b in
              let u = sys.nv and v = sys.nv + 1 in
              let nv = sys.nv + 2 in
              let combo_i = Array.make nv 0 and combo_j = Array.make nv 0 in
              combo_i.(u) <- p;
              combo_i.(v) <- Intx.neg (b / g);
              combo_j.(u) <- q;
              combo_j.(v) <- a / g;
              let sub r =
                let r = grow nv r in
                let r = subst_row i combo_i 0 r in
                subst_row j combo_j 0 r
              in
              elim_eqs budget
                {
                  nv;
                  eqs = sub e :: List.map sub rest;
                  ineqs = List.map sub sys.ineqs;
                }))

(* Tightest-bound dedup, as in plain FM. *)
let dedupe rows =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let key = Array.to_list r.cs in
      match Hashtbl.find_opt tbl key with
      | Some k when k <= r.k -> () (* the existing row is tighter *)
      | _ -> Hashtbl.replace tbl key r.k)
    rows;
  Hashtbl.fold (fun key k acc -> { cs = Array.of_list key; k } :: acc) tbl []

let normalize_ineq r =
  let g = Numth.gcd_list (Array.to_list r.cs) in
  if g <= 1 then r
  else row_map (fun c -> c / g) { r with k = Numth.fdiv r.k g }

let rec solve_ineqs budget sys =
  Budget.spend budget;
  let rows = List.map normalize_ineq sys.ineqs in
  let constant, rows = List.partition (fun r -> nonzero_indices r = []) rows in
  if List.exists (fun r -> r.k < 0) constant then Unsat
  else
    let rows = dedupe rows in
    (* Pick the variable to eliminate. *)
    let candidates =
      List.init sys.nv (fun v ->
          let lowers = List.filter (fun r -> r.cs.(v) > 0) rows in
          let uppers = List.filter (fun r -> r.cs.(v) < 0) rows in
          (v, lowers, uppers))
      |> List.filter (fun (_, l, u) -> l <> [] || u <> [])
    in
    match candidates with
    | [] -> Sat (* no variable constrained: all remaining rows constant *)
    | _ -> (
        let measure (v, lowers, uppers) =
          let exact =
            List.for_all (fun r -> r.cs.(v) = 1) lowers
            || List.for_all (fun r -> r.cs.(v) = -1) uppers
          in
          ((not exact), List.length lowers * List.length uppers, v)
        in
        let v, lowers, uppers =
          List.fold_left
            (fun best c -> if measure c < measure best then c else best)
            (List.hd candidates) (List.tl candidates)
        in
        let rest = List.filter (fun r -> r.cs.(v) = 0) rows in
        if lowers = [] || uppers = [] then
          (* x_v unbounded on one side over the integers: drop it. *)
          solve_ineqs budget { sys with ineqs = rest }
        else
          let exact =
            List.for_all (fun r -> r.cs.(v) = 1) lowers
            || List.for_all (fun r -> r.cs.(v) = -1) uppers
          in
          let combine ~dark l u =
            (* l: b·x + r_l ≥ 0 (b>0); u: -c·x + r_u ≥ 0 (c>0). *)
            let b = l.cs.(v) and c = -u.cs.(v) in
            let cs =
              Array.init sys.nv (fun i ->
                  if i = v then 0
                  else Intx.add (Intx.mul c l.cs.(i)) (Intx.mul b u.cs.(i)))
            in
            let k = Intx.add (Intx.mul c l.k) (Intx.mul b u.k) in
            let k = if dark then Intx.sub k ((b - 1) * (c - 1)) else k in
            { cs; k }
          in
          let shadow ~dark =
            rest
            @ List.concat_map
                (fun l -> List.map (fun u -> combine ~dark l u) uppers)
                lowers
          in
          if exact then solve_ineqs budget { sys with ineqs = shadow ~dark:false }
          else
            match solve_ineqs budget { sys with ineqs = shadow ~dark:false } with
            | Unsat -> Unsat
            | real_result -> (
                match
                  solve_ineqs budget { sys with ineqs = shadow ~dark:true }
                with
                | Sat -> Sat
                | _ -> (
                    (* Splinter: an integer point outside the dark shadow
                       must sit within (b·c_max - b - c_max)/c_max of some
                       lower bound b·x ≥ -r, so case-split on
                       b·x + r = i over every lower bound.  The cases are
                       generated lazily: there can be millions, and each
                       is charged to the budget only as it is tried. *)
                    let c_max =
                      List.fold_left (fun m r -> max m (-r.cs.(v))) 1 uppers
                    in
                    let cases =
                      Seq.concat_map
                        (fun l ->
                          let b = l.cs.(v) in
                          let hi = ((b * c_max) - c_max - b) / c_max in
                          Seq.init (max 0 (hi + 1)) (fun i ->
                              { l with k = Intx.sub l.k i }))
                        (List.to_seq lowers)
                    in
                    let any_unknown = ref (real_result = Unknown) in
                    let rec try_splinter cases =
                      match cases () with
                      | Seq.Nil -> if !any_unknown then Unknown else Unsat
                      | Seq.Cons (eq, restc) -> (
                          match
                            solve_full budget
                              { nv = sys.nv; eqs = [ eq ]; ineqs = rows }
                          with
                          | Sat -> Sat
                          | Unknown ->
                              any_unknown := true;
                              try_splinter restc
                          | Unsat -> try_splinter restc)
                    in
                    try_splinter cases)))

and solve_full budget sys =
  match elim_eqs budget sys with
  | `Unsat -> Unsat
  | `Go sys -> solve_ineqs budget sys

let var_key (v : Depeq.var) = (v.v_side, v.v_level, v.v_name)

let of_equations eqs =
  let vars = Hashtbl.create 8 in
  let ubs = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (eq : Depeq.t) ->
      List.iter
        (fun (t : Depeq.term) ->
          let key = var_key t.var in
          (* A variable shared between equations keeps the tightest of
             its declared ranges. *)
          (match Hashtbl.find_opt ubs key with
          | Some u when u <= t.var.v_ub -> ()
          | _ -> Hashtbl.replace ubs key t.var.v_ub);
          if not (Hashtbl.mem vars key) then begin
            Hashtbl.replace vars key (Hashtbl.length vars);
            order := t.var :: !order
          end)
        eq.terms)
    eqs;
  let nv = Hashtbl.length vars in
  let index v = Hashtbl.find vars (var_key v) in
  let eq_rows =
    List.map
      (fun (eq : Depeq.t) ->
        let cs = Array.make nv 0 in
        List.iter
          (fun (t : Depeq.term) ->
            cs.(index t.var) <- Intx.add cs.(index t.var) t.coeff)
          eq.terms;
        { cs; k = eq.c0 })
      eqs
  in
  let bound_rows =
    List.concat_map
      (fun (v : Depeq.var) ->
        let i = index v in
        let ub = Hashtbl.find ubs (var_key v) in
        let lo = { cs = Array.init nv (fun j -> if j = i then 1 else 0); k = 0 } in
        let hi =
          { cs = Array.init nv (fun j -> if j = i then -1 else 0); k = ub }
        in
        [ lo; hi ])
      (List.rev !order)
  in
  { nv; eqs = eq_rows; ineqs = bound_rows }

let solve ?budget ?(fuel = 50_000) eqs =
  let parent = match budget with Some b -> b | None -> Budget.unlimited in
  let b = Budget.sub ~fuel parent in
  match solve_full b (of_equations eqs) with
  | r -> r
  | exception Budget.Exhausted _ -> Unknown
  | exception Intx.Overflow _ -> Unknown

let test ?budget ?fuel eqs =
  match solve ?budget ?fuel eqs with
  | Unsat -> Verdict.Independent
  | Sat | Unknown -> Verdict.Dependent
