open Dlz_base

type outcome = Feasible of (Depeq.var * int) list | Infeasible | Unknown

(* Collect the distinct variables of a system; a variable shared between
   equations keeps the tightest of its declared ranges. *)
let variables eqs =
  List.fold_left
    (fun acc (eq : Depeq.t) ->
      List.fold_left
        (fun acc (t : Depeq.term) ->
          let rec insert = function
            | [] -> [ t.var ]
            | v :: rest when Depeq.same_var v t.var ->
                (if t.var.v_ub < v.v_ub then t.var else v) :: rest
            | v :: rest -> v :: insert rest
          in
          insert acc)
        acc eq.terms)
    [] eqs

(* Residual constant and unassigned-term list of an equation under a
   partial assignment. *)
let residual (eq : Depeq.t) asg =
  List.fold_left
    (fun (c, pending) (t : Depeq.term) ->
      match List.find_opt (fun (v, _) -> Depeq.same_var v t.var) asg with
      | Some (_, x) -> (Intx.add c (Intx.mul t.coeff x), pending)
      | None -> (c, t :: pending))
    (eq.c0, []) eq.terms

(* Interval of Σ pending terms. *)
let pending_interval pending =
  List.fold_left
    (fun acc (t : Depeq.term) ->
      Ivl.add acc (Ivl.scale t.coeff (Ivl.make 0 t.var.v_ub)))
    Ivl.zero pending

let prune eqs asg =
  (* Returns [Some pruned_domains] as (var, lo, hi) hints, or [None] if
     some equation is already unsatisfiable. *)
  let ok = ref true in
  let hints = Hashtbl.create 8 in
  List.iter
    (fun eq ->
      if !ok then begin
        let c, pending = residual eq asg in
        let iv = pending_interval pending in
        if not (Ivl.mem (-c) iv) then ok := false
        else begin
          (* gcd prune: Σ pending = -c needs gcd | c. *)
          let g =
            Numth.gcd_list (List.map (fun (t : Depeq.term) -> t.coeff) pending)
          in
          if not (Numth.divides g c) then ok := false
          else
            (* Per-variable domain narrowing within this equation. *)
            List.iter
              (fun (t : Depeq.term) ->
                let others =
                  pending_interval
                    (List.filter (fun u -> not (Depeq.same_var u.Depeq.var t.Depeq.var)) pending)
                in
                (* t.coeff * z ∈ [-c - hi(others), -c - lo(others)] *)
                let lo_rhs = Intx.sub (Intx.neg c) (Ivl.hi others) in
                let hi_rhs = Intx.sub (Intx.neg c) (Ivl.lo others) in
                let zlo, zhi =
                  if t.coeff > 0 then
                    (Numth.cdiv lo_rhs t.coeff, Numth.fdiv hi_rhs t.coeff)
                  else
                    (Numth.cdiv hi_rhs t.coeff, Numth.fdiv lo_rhs t.coeff)
                in
                let key = (t.var.v_side, t.var.v_level, t.var.v_name) in
                let prev =
                  Option.value
                    (Hashtbl.find_opt hints key)
                    ~default:(0, t.var.v_ub)
                in
                let merged = (max (fst prev) zlo, min (snd prev) zhi) in
                if fst merged > snd merged then ok := false
                else Hashtbl.replace hints key merged)
              pending
        end
      end)
    eqs;
  if !ok then Some hints else None

let var_key (v : Depeq.var) = (v.v_side, v.v_level, v.v_name)

let search ?budget ?(max_nodes = 1_000_000) ?(extra_ok = fun _ -> true)
    ~on_solution eqs =
  let vars = variables eqs in
  let parent = match budget with Some b -> b | None -> Budget.unlimited in
  let b = Budget.sub ~fuel:max_nodes parent in
  let rec go remaining asg =
    Budget.spend b;
    match prune eqs asg with
    | None -> ()
    | Some hints -> (
        match remaining with
        | [] -> if extra_ok asg then on_solution asg
        | _ ->
            (* Branch on the variable with the smallest pruned domain. *)
            let measure v =
              match Hashtbl.find_opt hints (var_key v) with
              | Some (lo, hi) -> hi - lo
              | None -> v.Depeq.v_ub
            in
            let v =
              List.fold_left
                (fun best v -> if measure v < measure best then v else best)
                (List.hd remaining) (List.tl remaining)
            in
            let rest = List.filter (fun w -> not (Depeq.same_var w v)) remaining in
            let lo, hi =
              Option.value (Hashtbl.find_opt hints (var_key v)) ~default:(0, v.v_ub)
            in
            let lo = max lo 0 and hi = min hi v.v_ub in
            for x = lo to hi do
              go rest ((v, x) :: asg)
            done)
  in
  go vars []

let solve ?budget ?max_nodes ?extra_ok eqs =
  let result = ref Infeasible in
  let exception Found of (Depeq.var * int) list in
  try
    search ?budget ?max_nodes ?extra_ok
      ~on_solution:(fun asg -> raise (Found asg))
      eqs;
    !result
  with
  | Found asg -> Feasible asg
  | Budget.Exhausted _ -> Unknown

let test ?budget ?max_nodes eqs =
  match solve ?budget ?max_nodes eqs with
  | Infeasible -> Verdict.Independent
  | Feasible _ | Unknown -> Verdict.Dependent

let count_solutions ?(limit = 1_000_000) eqs =
  let n = ref 0 in
  let exception Done in
  (try
     search
       ~on_solution:(fun _ ->
         incr n;
         if !n >= limit then raise Done)
       eqs
   with Done | Budget.Exhausted _ -> ());
  !n

let level_delta asg level =
  let find side =
    List.find_map
      (fun ((v : Depeq.var), x) ->
        if v.v_level = level && v.v_side = side then Some x else None)
      asg
  in
  match (find `Src, find `Dst) with
  | Some a, Some b -> Some (b - a)
  | _ -> None

let direction_vectors ?budget ~n_common eqs =
  (* On budget exhaustion the collected set is partial; returning it
     would under-approximate (an empty partial set reads as proven
     independence), so exhaustion propagates to the caller. *)
  let seen = Hashtbl.create 16 in
  search ?budget
    ~on_solution:(fun asg ->
      let dv =
        Array.init n_common (fun i ->
            match level_delta asg (i + 1) with
            | Some d -> Dirvec.of_delta d
            | None -> Dirvec.Star)
      in
      Hashtbl.replace seen dv ())
    eqs;
  let b = Dirvec.Set.builder n_common in
  Hashtbl.iter (fun dv () -> Dirvec.Set.add b dv) seen;
  Dirvec.Set.finish b

let level_values ?budget ~level ~side eqs =
  let seen = Hashtbl.create 16 in
  match
    search ?budget
      ~on_solution:(fun asg ->
        List.iter
          (fun ((v : Depeq.var), x) ->
            if v.v_level = level && v.v_side = side then
              Hashtbl.replace seen x ())
          asg)
      eqs
  with
  | () ->
      Some (List.sort Int.compare (Hashtbl.fold (fun d () acc -> d :: acc) seen []))
  | exception Budget.Exhausted _ -> None

let distance_set ?budget ~level eqs =
  let seen = Hashtbl.create 16 in
  match
    search ?budget
      ~on_solution:(fun asg ->
        match level_delta asg level with
        | Some d -> Hashtbl.replace seen d ()
        | None -> ())
      eqs
  with
  | () -> Some (List.sort Int.compare (Hashtbl.fold (fun d () acc -> d :: acc) seen []))
  | exception Budget.Exhausted _ -> None
