open Dlz_base

let feasible_dir ~ub dir =
  match dir with
  | Dirvec.Lt | Dirvec.Gt -> ub >= 1
  | Dirvec.Ne -> ub >= 1
  | Dirvec.Eq | Dirvec.Le | Dirvec.Ge | Dirvec.Star -> true

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

(* The equation folded per level with {!Depeq.fold_levels}, as
   {!Banerjee.test} and {!Gcd_test.test} fold it: each common level's
   pair range under every direction, and its gcd under [=] (the merged
   [a + b]) and otherwise (each instance's own coefficient); a level-0
   term, or a level beyond the common loops, joins the constant part
   under [*].  The sums are checked, so a table that breaks
   {!bounded}'s promise raises here rather than wrapping. *)
let table n (eq : Depeq.t) =
  let at level = if level >= 1 && level <= n then level - 1 else -1 in
  let mask =
    List.fold_left
      (fun m (t : Depeq.term) ->
        let at = at t.var.v_level in
        if at >= 0 then m lor (1 lsl at) else m)
      0 eq.terms
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
  (* The level's row in [tab], or [-1] outside the common loops. *)
  let row level =
    let at = at level in
    if at < 0 then -1
    else begin
      let k = ref 0 in
      while ats.(!k) <> at do
        incr k
      done;
      !k * stride
    end
  in
  let tab = Array.make (Array.length ats * stride) 0 in
  let lo0 = ref eq.c0 and hi0 = ref eq.c0 and g0 = ref 0 in
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
  Depeq.fold_levels eq ()
    ~free:(fun () c ub ->
      add_const (Ivl.scale c (Ivl.make 0 ub));
      g0 := Numth.gcd !g0 c)
    ~pair:(fun () level a ub_a b ub_b ->
      let range d = Banerjee.pair_interval a ub_a b ub_b d in
      let r = row level in
      if r < 0 then begin
        add_const (range Star);
        g0 := Numth.gcd (Numth.gcd !g0 a) b
      end
      else begin
        add_range r (range Lt);
        add_range (r + 2) (range Eq);
        add_range (r + 4) (range Gt);
        add_range (r + 6) (range Star);
        tab.(r + 8) <- Numth.gcd tab.(r + 8) (Intx.add a b);
        tab.(r + 9) <- Numth.gcd (Numth.gcd tab.(r + 9) a) b
      end)
    ~sink:(fun () _ _ -> ());
  { t_c0 = eq.c0; lo0 = !lo0; hi0 = !hi0; g0 = !g0; mask; ats; tab }

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
  if n <= max_table_levels && List.for_all bounded p.eqs then
    let eqs = Array.of_list (List.map (table n) p.eqs) in
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
    (* The checked walk: the node test is the per-equation
       {!Banerjee.test} then {!Gcd_test.test}, both run, until one proves
       independence, so an overflow fires where theirs would. *)
    let dirs lvl =
      if lvl >= 1 && lvl <= n then dv.(lvl - 1) else Dirvec.Star
    in
    let dependent eq =
      let ban = Banerjee.test ~dirs eq in
      let gcd = Gcd_test.test ~dirs eq in
      Verdict.both gcd ban <> Verdict.Independent
    in
    let at_level =
      Array.init n (fun at ->
          List.filter
            (fun (eq : Depeq.t) ->
              List.exists
                (fun (t : Depeq.term) -> t.var.v_level = at + 1)
                eq.terms)
            p.eqs)
    in
    walk ~budget p dv
      ~mentioned:(fun level -> at_level.(level - 1) <> [])
      ~test:(fun level ->
        List.for_all dependent
          (if level = 0 then p.eqs else at_level.(level - 1)))
