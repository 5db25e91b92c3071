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

(* --- the table path ------------------------------------------------------- *)

let bounded (eq : Depeq.t) =
  List.for_all (fun (t : Depeq.term) -> t.var.v_ub >= 0) eq.terms
  &&
  match
    List.fold_left
      (fun s (t : Depeq.term) ->
        Intx.add s (Intx.mul (Intx.abs t.coeff) (max t.var.v_ub 1)))
      (Intx.abs eq.c0) eq.terms
  with
  | _ -> true
  | exception Intx.Overflow _ -> false

(* A bounded equation, tabled once per walk.  [lo0, hi0] and [g0] are
   its constant part: [c0] and the terms at level 0 or beyond the
   common loops, which every node sees under [*].  [mask] has bit [at]
   set for each vector entry it mentions, and [ats] lists them in
   increasing order; [tab] holds [stride] ints per mentioned entry: the
   entry's range under [<], [=], [>] and [*] as [lo, hi] pairs (an
   empty range as [max_int, min_int]), then the gcd of its coefficients
   under [=] and under any other direction. *)
type teq = {
  t_c0 : int;
  lo0 : int;
  hi0 : int;
  g0 : int;
  mask : int;
  ats : int array;
  tab : int array;
}

let stride = 10

let slot_of (d : Dirvec.dir) =
  match d with Lt -> 0 | Eq -> 2 | Gt -> 4 | _ -> 6

(* The walks a table can serve: the mask has a bit per level. *)
let max_table_levels = Sys.int_size - 1

(* [compile_eq]'s slots folded per level: each pair's range under
   every direction and each level's gcd under [=] and otherwise; a slot
   outside the common loops joins the constant part under [*].  The
   sums are checked, so a table that breaks {!bounded}'s promise raises
   here rather than wrapping. *)
let table n (e : ceq) =
  let mask =
    List.fold_left
      (fun m s -> if s.at >= 0 then m lor (1 lsl s.at) else m)
      0 e.slots
  in
  let rec bits m = if m = 0 then 0 else 1 + bits (m land (m - 1)) in
  let ats = Array.make (bits mask) 0 in
  let k = ref 0 in
  for at = 0 to n - 1 do
    if mask land (1 lsl at) <> 0 then begin
      ats.(!k) <- at;
      incr k
    end
  done;
  let tab = Array.make (Array.length ats * stride) 0 in
  let lo0 = ref e.c0 and hi0 = ref e.c0 and g0 = ref 0 in
  let add_const iv =
    lo0 := Intx.add !lo0 (Ivl.lo iv);
    hi0 := Intx.add !hi0 (Ivl.hi iv)
  in
  let add_range i iv =
    if Ivl.is_empty iv || tab.(i) > tab.(i + 1) then begin
      tab.(i) <- max_int;
      tab.(i + 1) <- min_int
    end
    else begin
      tab.(i) <- Intx.add tab.(i) (Ivl.lo iv);
      tab.(i + 1) <- Intx.add tab.(i + 1) (Ivl.hi iv)
    end
  in
  let range p d = Banerjee.pair_interval p.a p.ub_a p.b p.ub_b d in
  List.iter
    (fun s ->
      if s.at < 0 then begin
        (match s.ban with
        | Box (c, ub) -> add_const (Ivl.scale c (Ivl.make 0 ub))
        | Pair p -> add_const (range p Star)
        | Skip -> ());
        g0 :=
          Numth.gcd !g0
            (match s.gcd with Coeff c | Dropped c -> c | Merged m -> m.coeff)
      end
      else begin
        let r =
          let k = ref 0 in
          while ats.(!k) <> s.at do
            incr k
          done;
          !k * stride
        in
        (match s.ban with
        | Pair p ->
            add_range r (range p Lt);
            add_range (r + 2) (range p Eq);
            add_range (r + 4) (range p Gt);
            add_range (r + 6) (range p Star)
        | Box _ | Skip -> ());
        let g_eq, g =
          match s.gcd with
          | Coeff c -> (c, c)
          | Merged m -> (Intx.add m.coeff m.other, m.coeff)
          | Dropped c -> (0, c)
        in
        tab.(r + 8) <- Numth.gcd tab.(r + 8) g_eq;
        tab.(r + 9) <- Numth.gcd tab.(r + 9) g
      end)
    e.slots;
  { t_c0 = e.c0; lo0 = !lo0; hi0 = !hi0; g0 = !g0; mask; ats; tab }

(* Native arithmetic from here on: every value is at most the
   equation's {!bounded} sum in absolute value, and gcds are
   nonnegative. *)
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Banerjee-with-directions: no range is empty and their sum contains
   zero. *)
let rec ranges_hold (dv : Dirvec.t) e k lo hi =
  if k = Array.length e.ats then lo <= 0 && 0 <= hi
  else
    let i = (k * stride) + slot_of dv.(e.ats.(k)) in
    let l = e.tab.(i) and h = e.tab.(i + 1) in
    l <= h && ranges_hold dv e (k + 1) (lo + l) (hi + h)

(* GCD-with-directions: the gcd of the effective coefficients. *)
let rec level_gcd (dv : Dirvec.t) e k g =
  if k = Array.length e.ats then g
  else
    let i = (k * stride) + if dv.(e.ats.(k)) = Dirvec.Eq then 8 else 9 in
    level_gcd dv e (k + 1) (gcd e.tab.(i) g)

(* The node test over the tested equations.  [with_gcd] is false at a
   [<] or [>] child: its tested equations mention its level, so each
   last passed at an ancestor that saw the level as [*] and every other
   level it mentions as it is now, and the gcd reads the same
   coefficients under [*], [<] and [>]. *)
let rec table_dependent dv with_gcd eqs i =
  i = Array.length eqs
  ||
  let e = eqs.(i) in
  ranges_hold dv e 0 e.lo0 e.hi0
  && ((not with_gcd)
     ||
     let g = level_gcd dv e 0 e.g0 in
     if g = 0 then e.t_c0 = 0 else e.t_c0 mod g = 0)
  && table_dependent dv with_gcd eqs (i + 1)

(* --- the walk ------------------------------------------------------------- *)

let children = [| Dirvec.Lt; Dirvec.Eq; Dirvec.Gt |]

(* The refinement of [dv] over [p]'s levels.  [test level] is the node
   test of the node [level] was just set at (0: the root), against the
   equations that mention [level] (all of them at the root): a child
   differs from its parent only at its own level, so only those can
   fail where the parent passed.  The others would compute what they
   computed at the parent, without overflowing, so skipping them moves
   no overflow to another node or operation.  [mentioned level] says
   whether any equation mentions [level]. *)
let walk ~budget (p : Problem.numeric) dv ~mentioned ~test =
  let n = p.n_common in
  let feasible level d =
    level > Array.length p.common_ubs
    || feasible_dir ~ub:p.common_ubs.(level - 1) d
  in
  let leaves = Dirvec.Set.builder n in
  (* [node level] tests the node whose levels below [level] are set in
     [dv] (already charged) and refines it; it returns the number of
     nodes its subtree charged, itself included. *)
  let rec node level =
    if not (test (level - 1)) then 1
    else if level > n then begin
      Dirvec.Set.add leaves dv;
      1
    end
    else if mentioned level then begin
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
    let k = if feasible level d then node (level + 1) else 1 in
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
  ignore (node 1 : int);
  Dirvec.Set.finish leaves

let directions ?(budget = Budget.unlimited) (p : Problem.numeric) =
  let n = p.n_common in
  let dv = Dirvec.all_star n in
  let eqs = List.map (compile_eq n) p.eqs in
  if n <= max_table_levels && List.for_all bounded p.eqs then
    let eqs = Array.of_list (List.map (table n) eqs) in
    let at_level =
      Array.init n (fun at ->
          let bit = 1 lsl at in
          let tested = ref [] in
          for i = Array.length eqs - 1 downto 0 do
            if eqs.(i).mask land bit <> 0 then tested := eqs.(i) :: !tested
          done;
          Array.of_list !tested)
    in
    walk ~budget p dv
      ~mentioned:(fun level -> at_level.(level - 1) <> [||])
      ~test:(fun level ->
        if level = 0 then table_dependent dv true eqs 0
        else
          table_dependent dv
            (dv.(level - 1) = Dirvec.Eq)
            at_level.(level - 1) 0)
  else
    let at_level = Array.init n (fun at -> List.filter (mentions at) eqs) in
    let acc = Domain.DLS.get acc_key in
    walk ~budget p dv
      ~mentioned:(fun level -> at_level.(level - 1) <> [])
      ~test:(fun level ->
        dependent acc dv (if level = 0 then eqs else at_level.(level - 1)))
