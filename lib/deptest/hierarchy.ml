open Dlz_base

let feasible_dir ~ub dir =
  match dir with
  | Dirvec.Lt | Dirvec.Gt -> ub >= 1
  | Dirvec.Ne -> ub >= 1
  | Dirvec.Eq | Dirvec.Le | Dirvec.Ge | Dirvec.Star -> true

(* Each equation is compiled once per [directions] call into one slot
   per term, in term order, holding what GCD-with-directions and
   Banerjee-with-directions read of that term: the lookups
   ([Depeq.has_side]/[find_coeff]/[find_ub]) are done here, not at every
   node.  A slot's direction is the vector entry [at], or [*] when
   [at < 0] (level 0, or a level outside the common loops). *)

(* Banerjee's range of one common level's [a*α + b*β], memoized per
   direction the first time a node asks for it. *)
type pair = {
  a : int;
  ub_a : int;
  b : int;
  ub_b : int;
  mutable lt : Ivl.t option;
  mutable eq : Ivl.t option;
  mutable gt : Ivl.t option;
  mutable star : Ivl.t option;
}

type ban =
  | Box of int * int  (** level 0: [coeff * [0, ub]] *)
  | Pair of pair  (** the level's pair range, added at its [`Src] term *)
  | Skip  (** a [`Dst] term whose [`Src] term carries the pair *)

(* The merged coefficient [a + b] of a level with both instances, which
   the gcd test uses under [=]; computed once, when first needed. *)
type merged = { coeff : int; other : int; mutable sum : int option }

type gcd =
  | Coeff of int  (** always its own coefficient *)
  | Merged of merged  (** a [`Src] term: [a + b] under [=], else [a] *)
  | Dropped of int  (** a [`Dst] term: nothing under [=] (merged at [`Src]) *)

type slot = { at : int; ban : ban; gcd : gcd }
type ceq = { c0 : int; slots : slot list }

let compile_eq n (eq : Depeq.t) =
  let pair a ub_a b ub_b =
    Pair { a; ub_a; b; ub_b; lt = None; eq = None; gt = None; star = None }
  in
  let slot (t : Depeq.term) =
    let v = t.var and c = t.coeff in
    let lvl = v.v_level in
    let at = if lvl >= 1 && lvl <= n then lvl - 1 else -1 in
    if lvl = 0 then { at = -1; ban = Box (c, v.v_ub); gcd = Coeff c }
    else
      match v.v_side with
      | `Src ->
          if Depeq.has_side eq ~level:lvl `Dst then
            let b = Depeq.find_coeff eq ~level:lvl `Dst in
            {
              at;
              ban = pair c v.v_ub b (Depeq.find_ub eq ~level:lvl `Dst);
              gcd = Merged { coeff = c; other = b; sum = None };
            }
          else { at; ban = pair c v.v_ub 0 max_int; gcd = Coeff c }
      | `Dst ->
          if Depeq.has_side eq ~level:lvl `Src then
            { at; ban = Skip; gcd = Dropped c }
          else { at; ban = pair 0 max_int c v.v_ub; gcd = Coeff c }
  in
  { c0 = eq.c0; slots = List.map slot eq.terms }

let dir_at (dv : Dirvec.t) at = if at < 0 then Dirvec.Star else dv.(at)

(* The refinement writes only [<], [=], [>] and [*] into the vector, so
   [_] below is [*]. *)
let pair_range p (dir : Dirvec.dir) =
  let memo =
    match dir with Lt -> p.lt | Eq -> p.eq | Gt -> p.gt | _ -> p.star
  in
  match memo with
  | Some iv -> iv
  | None ->
      let iv = Banerjee.pair_interval p.a p.ub_a p.b p.ub_b dir in
      (match dir with
      | Lt -> p.lt <- Some iv
      | Eq -> p.eq <- Some iv
      | Gt -> p.gt <- Some iv
      | _ -> p.star <- Some iv);
      iv

let merged_sum m =
  match m.sum with
  | Some s -> s
  | None ->
      let s = Intx.add m.coeff m.other in
      m.sum <- Some s;
      s

(* Banerjee-with-directions: the equation's range contains zero. *)
let rec banerjee_range acc dv = function
  | [] -> ()
  | s :: rest ->
      (match s.ban with
      | Box (c, ub) -> Ivl.Acc.add_scaled acc c ub
      | Pair p -> Ivl.Acc.add_ivl acc (pair_range p (dir_at dv s.at))
      | Skip -> ());
      banerjee_range acc dv rest

let banerjee_dep acc dv e =
  Ivl.Acc.set_point acc e.c0;
  banerjee_range acc dv e.slots;
  Ivl.Acc.contains_zero acc

(* GCD-with-directions: the gcd of the effective coefficients divides
   the constant. *)
let rec effective_gcd dv g = function
  | [] -> g
  | s :: rest ->
      let g =
        match s.gcd with
        | Coeff c -> Numth.gcd g c
        | Merged m ->
            Numth.gcd g
              (if dir_at dv s.at = Dirvec.Eq then merged_sum m else m.coeff)
        | Dropped c -> if dir_at dv s.at = Dirvec.Eq then g else Numth.gcd g c
      in
      effective_gcd dv g rest

(* The node test, equation by equation until one is independent; per
   equation Banerjee runs before the gcd test and both always run, so an
   overflow fires at the same node with the same operation as the
   per-equation [Verdict.both (Gcd_test.test) (Banerjee.test)]. *)
let rec dependent acc dv = function
  | [] -> true
  | e :: rest ->
      let ban = banerjee_dep acc dv e in
      let gcd = Numth.divides (effective_gcd dv 0 e.slots) e.c0 in
      ban && gcd && dependent acc dv rest

(* Whether the equation has a term at vector entry [at]. *)
let mentions at e = List.exists (fun s -> s.at = at) e.slots

let acc_key = Domain.DLS.new_key Ivl.Acc.create
let children = [| Dirvec.Lt; Dirvec.Eq; Dirvec.Gt |]

let directions ?(budget = Budget.unlimited) (p : Problem.numeric) =
  let n = p.n_common in
  let eqs = List.map (compile_eq n) p.eqs in
  (* The equations with a term at each vector entry.  A child differs
     from its parent only at its own level, so only these equations can
     fail where the parent passed.  The others would compute what they
     computed at the parent, without overflowing, so skipping them moves
     no overflow to another node or operation. *)
  let at_level = Array.init n (fun at -> List.filter (mentions at) eqs) in
  let feasible level d =
    level > Array.length p.common_ubs
    || feasible_dir ~ub:p.common_ubs.(level - 1) d
  in
  let acc = Domain.DLS.get acc_key in
  let dv = Dirvec.all_star n in
  let leaves = Dirvec.Set.builder n in
  (* [node level tested] tests the node whose levels below [level] are
     set in [dv] (already charged) against the equations [tested] and
     refines it; it returns the number of nodes its subtree charged,
     itself included. *)
  let rec node level tested =
    if not (dependent acc dv tested) then 1
    else if level > n then begin
      Dirvec.Set.add leaves dv;
      1
    end
    else if at_level.(level - 1) <> [] then begin
      let total = ref 1 in
      for i = 0 to 2 do
        total := !total + child level children.(i)
      done;
      !total
    end
    else unmentioned level
  and child level d =
    dv.(level - 1) <- d;
    Budget.spend budget;
    let k =
      if feasible level d then node (level + 1) at_level.(level - 1) else 1
    in
    dv.(level - 1) <- Dirvec.Star;
    k
  (* No equation mentions [level], so every feasible child roots the
     same subtree: the first is solved, the others copy its leaves with
     [level] rewritten and charge the nodes they stand for one spend at
     a time, so fuel runs out at the same node as a full walk.  The
     walk visits children in [<], [=], [>] order, so the leaves, copies
     included, arrive sorted. *)
  and unmentioned level =
    let total = ref 1 and model = ref None in
    for i = 0 to 2 do
      let d = children.(i) in
      match !model with
      | Some (k, from, upto) when feasible level d ->
          for _ = 1 to k do
            Budget.spend budget
          done;
          Dirvec.Set.add_copies leaves ~from ~upto ~level d;
          total := !total + k
      | _ ->
          let from = Dirvec.Set.count leaves in
          let k = child level d in
          if feasible level d then
            model := Some (k, from, Dirvec.Set.count leaves);
          total := !total + k
    done;
    !total
  in
  Budget.spend budget;
  ignore (node 1 eqs : int);
  Dirvec.Set.finish leaves
