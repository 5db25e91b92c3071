(* Tests for dlz_symbolic: monomials, canonical polynomials and the
   assumption-based sign decision procedures that drive the symbolic
   delinearization of paper §4. *)

module Monomial = Dlz_symbolic.Monomial
module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume

let poly = Alcotest.testable Poly.pp Poly.equal

(* --- monomials ------------------------------------------------------------ *)

let monomial_units =
  [
    Alcotest.test_case "construction and degree" `Quick (fun () ->
        let m = Monomial.of_list [ ("N", 2); ("KK", 1) ] in
        Alcotest.(check int) "degree" 3 (Monomial.degree m);
        Alcotest.(check bool) "unit is unit" true (Monomial.is_unit Monomial.unit);
        Alcotest.(check int) "unit degree" 0 (Monomial.degree Monomial.unit);
        let m2 = Monomial.of_list [ ("N", 1); ("N", 1); ("KK", 1) ] in
        Alcotest.(check bool) "repeats add" true (Monomial.equal m m2));
    Alcotest.test_case "mul / div / divides" `Quick (fun () ->
        let n = Monomial.of_sym "N" in
        let n2 = Monomial.mul n n in
        Alcotest.(check bool) "N | N^2" true (Monomial.divides n n2);
        Alcotest.(check bool) "N^2 !| N" false (Monomial.divides n2 n);
        Alcotest.(check bool) "div exact" true
          (Monomial.equal n (Monomial.div_exn n2 n));
        Alcotest.(check bool) "unit divides all" true
          (Monomial.divides Monomial.unit n2));
    Alcotest.test_case "gcd" `Quick (fun () ->
        let a = Monomial.of_list [ ("N", 2); ("M", 1) ] in
        let b = Monomial.of_list [ ("N", 1); ("K", 3) ] in
        Alcotest.(check bool) "gcd = N" true
          (Monomial.equal (Monomial.of_sym "N") (Monomial.gcd a b)));
    Alcotest.test_case "printing" `Quick (fun () ->
        Alcotest.(check string) "unit" "1"
          (Format.asprintf "%a" Monomial.pp Monomial.unit);
        Alcotest.(check string) "alphabetical order" "KK*N^2"
          (Format.asprintf "%a" Monomial.pp
             (Monomial.of_list [ ("N", 2); ("KK", 1) ])));
  ]

(* --- polynomials ----------------------------------------------------------- *)

let n = Poly.sym "N"
let kk = Poly.sym "KK"

let poly_units =
  [
    Alcotest.test_case "canonical equality" `Quick (fun () ->
        let a = Poly.add (Poly.mul n n) n in
        let b = Poly.add n (Poly.mul n n) in
        Alcotest.check poly "N^2+N built two ways" a b;
        Alcotest.check poly "x - x = 0" Poly.zero (Poly.sub a a));
    Alcotest.test_case "to_const" `Quick (fun () ->
        Alcotest.(check (option int)) "const" (Some 7)
          (Poly.to_const (Poly.const 7));
        Alcotest.(check (option int)) "zero" (Some 0) (Poly.to_const Poly.zero);
        Alcotest.(check (option int)) "sym" None (Poly.to_const n));
    Alcotest.test_case "degree / vars" `Quick (fun () ->
        Alcotest.(check int) "deg zero" (-1) (Poly.degree Poly.zero);
        Alcotest.(check int) "deg const" 0 (Poly.degree Poly.one);
        Alcotest.(check int) "deg N^2+N" 2
          (Poly.degree (Poly.add (Poly.mul n n) n));
        Alcotest.(check (list string)) "vars" [ "KK"; "N" ]
          (Poly.vars (Poly.add n kk)));
    Alcotest.test_case "subst" `Quick (fun () ->
        let p = Poly.add (Poly.mul n n) n in
        Alcotest.check poly "subst const" (Poly.const 12)
          (Poly.subst "N" (Poly.const 3) p);
        Alcotest.check poly "subst sym" (Poly.mul kk kk)
          (Poly.subst "N" kk (Poly.mul n kk)));
    Alcotest.test_case "content and monomial content" `Quick (fun () ->
        let p = Poly.add (Poly.scale 6 (Poly.mul n n)) (Poly.scale 9 n) in
        Alcotest.(check int) "content 6N^2+9N" 3 (Poly.content p);
        Alcotest.(check bool) "monomial content N" true
          (Monomial.equal (Monomial.of_sym "N") (Poly.monomial_content p)));
    Alcotest.test_case "gcd_simple (paper cases)" `Quick (fun () ->
        Alcotest.check poly "gcd(N, N^2) = N" n
          (Poly.gcd_simple n (Poly.mul n n));
        Alcotest.check poly "gcd(1, N) = 1" Poly.one (Poly.gcd_simple Poly.one n);
        Alcotest.check poly "gcd(p, 0)" (Poly.scale 2 n)
          (Poly.gcd_simple (Poly.scale 2 n) Poly.zero);
        Alcotest.check poly "gcd(10N, 4N^2) = 2N" (Poly.scale 2 n)
          (Poly.gcd_simple (Poly.scale 10 n) (Poly.scale 4 (Poly.mul n n))));
    Alcotest.test_case "divmod_by_term (paper section 4)" `Quick (fun () ->
        let p = Poly.add (Poly.mul n n) n in
        (match Poly.divmod_by_term p (Poly.mul n n) with
        | Some (q, r) ->
            Alcotest.check poly "quotient" Poly.one q;
            Alcotest.check poly "remainder" n r
        | None -> Alcotest.fail "expected single-term division");
        (match Poly.divmod_by_term p n with
        | Some (q, r) ->
            Alcotest.check poly "quotient N+1" (Poly.add n Poly.one) q;
            Alcotest.check poly "remainder 0" Poly.zero r
        | None -> Alcotest.fail "expected division");
        Alcotest.(check bool) "two-term divisor rejected" true
          (Poly.divmod_by_term p (Poly.add n Poly.one) = None));
    Alcotest.test_case "leading sign" `Quick (fun () ->
        Alcotest.(check int) "pos" 1
          (Poly.leading_sign (Poly.add (Poly.mul n n) n));
        Alcotest.(check int) "neg" (-1)
          (Poly.leading_sign (Poly.sub n (Poly.mul n n)));
        Alcotest.(check int) "zero" 0 (Poly.leading_sign Poly.zero));
    Alcotest.test_case "printing min_int coefficients" `Quick (fun () ->
        Alcotest.(check string) "constant" "-4611686018427387904"
          (Poly.to_string (Poly.const min_int));
        Alcotest.(check string) "on a monomial"
          "-4611686018427387904*N - 4611686018427387904"
          (Poly.to_string
             (Poly.add (Poly.scale min_int n) (Poly.const min_int)));
        Alcotest.(check string) "after a term" "N^2 - 4611686018427387904*N"
          (Poly.to_string (Poly.add (Poly.mul n n) (Poly.scale min_int n))));
    Alcotest.test_case "printing" `Quick (fun () ->
        Alcotest.(check string) "zero" "0" (Poly.to_string Poly.zero);
        Alcotest.(check string) "descending" "N^2 + N - 2"
          (Poly.to_string
             (Poly.sub (Poly.add (Poly.mul n n) n) (Poly.const 2))));
  ]

(* Random polynomial generator over two symbols. *)
let gen_poly =
  QCheck.Gen.(
    let* nterms = int_range 0 5 in
    let* terms =
      flatten_l
        (List.init nterms (fun _ ->
             let* c = int_range (-9) 9 in
             let* en = int_range 0 2 in
             let* ek = int_range 0 2 in
             let facs =
               (if en > 0 then [ ("N", en) ] else [])
               @ if ek > 0 then [ ("K", ek) ] else []
             in
             return (Poly.monomial c (Monomial.of_list facs))))
    in
    return (Poly.sum terms))

let arb_poly = QCheck.make ~print:Poly.to_string gen_poly
let eval_at vn vk p = Poly.eval (function "N" -> vn | "K" -> vk | _ -> 0) p

let poly_props =
  let vals = QCheck.int_range (-6) 6 in
  [
    QCheck.Test.make ~name:"add agrees with eval" ~count:300
      (QCheck.quad arb_poly arb_poly vals vals) (fun (p, q, a, b) ->
        eval_at a b (Poly.add p q) = eval_at a b p + eval_at a b q);
    QCheck.Test.make ~name:"mul agrees with eval" ~count:300
      (QCheck.quad arb_poly arb_poly vals vals) (fun (p, q, a, b) ->
        eval_at a b (Poly.mul p q) = eval_at a b p * eval_at a b q);
    QCheck.Test.make ~name:"subst agrees with eval" ~count:300
      (QCheck.quad arb_poly arb_poly vals vals) (fun (p, q, a, b) ->
        eval_at a b (Poly.subst "N" q p)
        = Poly.eval (function "N" -> eval_at a b q | "K" -> b | _ -> 0) p);
    QCheck.Test.make ~name:"gcd_simple divides both" ~count:300
      (QCheck.pair arb_poly arb_poly) (fun (p, q) ->
        let g = Poly.gcd_simple p q in
        Poly.is_zero g
        || (match Poly.divmod_by_term p g with
           | Some (_, r) -> Poly.is_zero r
           | None -> false)
           &&
           match Poly.divmod_by_term q g with
           | Some (_, r) -> Poly.is_zero r
           | None -> false);
    QCheck.Test.make ~name:"divmod reconstructs p = q*g + r" ~count:300
      (QCheck.pair arb_poly arb_poly) (fun (p, d) ->
        let g = Poly.gcd_simple d Poly.zero in
        QCheck.assume (not (Poly.is_zero g));
        match Poly.divmod_by_term p g with
        | Some (q, r) -> Poly.equal p (Poly.add (Poly.mul q g) r)
        | None -> false);
  ]

(* --- assumptions ----------------------------------------------------------- *)

let assume_units =
  let env2 = Assume.assume_ge "N" 2 Assume.empty in
  [
    Alcotest.test_case "paper section-4 comparisons" `Quick (fun () ->
        let n2 = Poly.mul n n in
        Alcotest.(check bool) "N-1 < N" true
          (Assume.lt env2 (Poly.sub n Poly.one) n);
        Alcotest.(check bool) "N^2-N < N^2" true
          (Assume.lt env2 (Poly.sub n2 n) n2);
        Alcotest.(check bool) "N^2+N > 0" true
          (Assume.is_pos env2 (Poly.add n2 n));
        Alcotest.(check bool) "N-3 not provably nonneg" false
          (Assume.is_nonneg env2 (Poly.sub n (Poly.const 3)));
        Alcotest.(check bool) "N-3 not provably nonpos" false
          (Assume.is_nonpos env2 (Poly.sub n (Poly.const 3))));
    Alcotest.test_case "sign" `Quick (fun () ->
        Alcotest.(check bool) "zero" true
          (Assume.sign env2 Poly.zero = Assume.Zero);
        Alcotest.(check bool) "pos" true (Assume.sign env2 n = Assume.Positive);
        Alcotest.(check bool) "neg" true
          (Assume.sign env2 (Poly.neg n) = Assume.Negative);
        Alcotest.(check bool) "unknown" true
          (Assume.sign env2 (Poly.sub n (Poly.const 5)) = Assume.Unknown));
    Alcotest.test_case "abs / max2" `Quick (fun () ->
        Alcotest.(check (option string)) "abs of -N" (Some "N")
          (Option.map Poly.to_string (Assume.abs env2 (Poly.neg n)));
        Alcotest.(check (option string)) "max2 N, N^2" (Some "N^2")
          (Option.map Poly.to_string (Assume.max2 env2 n (Poly.mul n n))));
    Alcotest.test_case "assume_ge strengthens only" `Quick (fun () ->
        let env = Assume.assume_ge "N" 1 env2 in
        Alcotest.(check (option int)) "keeps 2" (Some 2)
          (Assume.lower_bound "N" env);
        let env = Assume.assume_ge "N" 5 env in
        Alcotest.(check (option int)) "raises to 5" (Some 5)
          (Assume.lower_bound "N" env));
    Alcotest.test_case "assume_nonneg derivations" `Quick (fun () ->
        let env = Assume.assume_nonneg (Poly.sub kk Poly.one) Assume.empty in
        Alcotest.(check (option int)) "KK-1>=0 gives KK >= 1" (Some 1)
          (Assume.lower_bound "KK" env);
        let env =
          Assume.assume_nonneg
            (Poly.sub (Poly.scale 2 n) (Poly.const 5))
            Assume.empty
        in
        Alcotest.(check (option int)) "2N-5>=0 gives N >= 3" (Some 3)
          (Assume.lower_bound "N" env);
        let env = Assume.assume_nonneg (Poly.mul n n) Assume.empty in
        Alcotest.(check (option int)) "N^2 shape ignored" None
          (Assume.lower_bound "N" env));
  ]

(* Soundness: whenever a judgment is made it must hold at every sampled
   point satisfying the assumptions. *)
let assume_props =
  [
    QCheck.Test.make ~name:"is_nonneg sound" ~count:500
      (QCheck.pair arb_poly (QCheck.int_range 0 4))
      (fun (p, lb) ->
        let env =
          Assume.assume_ge "N" lb (Assume.assume_ge "K" lb Assume.empty)
        in
        (not (Assume.is_nonneg env p))
        || List.for_all
             (fun dn ->
               List.for_all
                 (fun dk -> eval_at (lb + dn) (lb + dk) p >= 0)
                 [ 0; 1; 2; 5 ])
             [ 0; 1; 2; 5 ]);
    QCheck.Test.make ~name:"lt sound" ~count:500
      (QCheck.triple arb_poly arb_poly (QCheck.int_range 0 4))
      (fun (p, q, lb) ->
        let env =
          Assume.assume_ge "N" lb (Assume.assume_ge "K" lb Assume.empty)
        in
        (not (Assume.lt env p q))
        || List.for_all
             (fun dn ->
               List.for_all
                 (fun dk ->
                   eval_at (lb + dn) (lb + dk) p
                   < eval_at (lb + dn) (lb + dk) q)
                 [ 0; 1; 3 ])
             [ 0; 1; 3 ]);
  ]

(* --- one shift per decision, against the subst-based reference ---------- *)

module Intx = Dlz_base.Intx

(* The procedure [Assume] used before it decided a comparison in one
   pass, kept as the reference: each question rebuilds the shifted
   polynomial through [Poly.subst], and [is_pos], [is_neg], [sign] and
   [abs] ask [is_nonneg] of [p - 1], [-p - 1] and [p] in turn. *)
module Reference = struct
  let shifted env p =
    List.fold_left
      (fun q s ->
        match Assume.lower_bound s env with
        | None -> q
        | Some lb -> Poly.subst s (Poly.add (Poly.const lb) (Poly.sym s)) q)
      p (Poly.vars p)

  let all_bounded env p =
    List.for_all (fun s -> Assume.lower_bound s env <> None) (Poly.vars p)

  let coeff_signs p =
    List.fold_left
      (fun (has_pos, has_neg, konst) (c, m) ->
        if Monomial.is_unit m then (has_pos, has_neg, c)
        else (has_pos || c > 0, has_neg || c < 0, konst))
      (false, false, 0) (Poly.terms p)

  let is_nonneg env p =
    match Poly.to_const p with
    | Some c -> c >= 0
    | None ->
        all_bounded env p
        &&
        let _, has_neg, konst = coeff_signs (shifted env p) in
        (not has_neg) && konst >= 0

  let is_pos env p = is_nonneg env (Poly.sub p Poly.one)
  let is_nonpos env p = is_nonneg env (Poly.neg p)
  let is_neg env p = is_pos env (Poly.neg p)

  let sign env p =
    if Poly.is_zero p then Assume.Zero
    else if is_pos env p then Assume.Positive
    else if is_neg env p then Assume.Negative
    else Assume.Unknown

  let lt env p q = is_pos env (Poly.sub q p)
  let le env p q = is_nonneg env (Poly.sub q p)

  let abs env p =
    match sign env p with
    | Assume.Zero -> Some Poly.zero
    | Assume.Positive -> Some p
    | Assume.Negative -> Some (Poly.neg p)
    | Assume.Unknown -> if is_nonneg env p then Some p else None

  let max2 env p q =
    if le env q p then Some p else if le env p q then Some q else None
end

(* Every public decision on [p] (and the pair [p], [q]), rendered, with
   [Intx.Overflow] as its own answer. *)
let decisions ~is_nonneg ~is_pos ~is_nonpos ~is_neg ~sign ~lt ~le ~abs ~max2
    env p q =
  let run name f =
    name ^ "="
    ^ match f () with s -> s | exception Intx.Overflow _ -> "overflow"
  in
  let b f () = string_of_bool (f ()) in
  let o f () = Option.fold ~none:"none" ~some:Poly.to_string (f ()) in
  let sign_name () =
    match sign env p with
    | Assume.Zero -> "zero"
    | Assume.Positive -> "positive"
    | Assume.Negative -> "negative"
    | Assume.Unknown -> "unknown"
  in
  [ run "is_nonneg" (b (fun () -> is_nonneg env p));
    run "is_pos" (b (fun () -> is_pos env p));
    run "is_nonpos" (b (fun () -> is_nonpos env p));
    run "is_neg" (b (fun () -> is_neg env p));
    run "sign" sign_name;
    run "lt" (b (fun () -> lt env p q));
    run "le" (b (fun () -> le env p q));
    run "abs" (o (fun () -> abs env p));
    run "max2" (o (fun () -> max2 env p q)) ]

let answers_new =
  decisions ~is_nonneg:Assume.is_nonneg ~is_pos:Assume.is_pos
    ~is_nonpos:Assume.is_nonpos ~is_neg:Assume.is_neg ~sign:Assume.sign
    ~lt:Assume.lt ~le:Assume.le ~abs:Assume.abs ~max2:Assume.max2

let answers_reference =
  Reference.(
    decisions ~is_nonneg ~is_pos ~is_nonpos ~is_neg ~sign ~lt ~le ~abs ~max2)

(* Integers from a mixture: small ones, and ones within a few bits of
   [max_int] or [min_int] (the extremes themselves included). *)
let gen_int st =
  match Random.State.int st 4 with
  | 0 | 1 -> Random.State.int st 13 - 6
  | 2 ->
      let big = max_int asr Random.State.int st 4 - Random.State.int st 3 in
      if Random.State.bool st then big else -big
  | _ -> if Random.State.bool st then max_int else min_int

(* A polynomial of degree at most [deg] over [syms]: up to four terms,
   each a random coefficient times a random monomial.  [None] when the
   terms' sum itself overflows. *)
let gen_poly st ~deg syms =
  let monomial () =
    let rec go d acc =
      if d = 0 || Random.State.int st 3 = 0 then acc
      else
        go (d - 1)
          ((List.nth syms (Random.State.int st (List.length syms)), 1) :: acc)
    in
    Monomial.of_list (go deg [])
  in
  match
    Poly.sum
      (List.init (Random.State.int st 5) (fun _ ->
           Poly.monomial (gen_int st) (monomial ())))
  with
  | p -> Some p
  | exception Intx.Overflow _ -> None

(* An environment over 1-3 of [N], [M], [K]: each bounded with
   probability 3/4, by a small bound (negative ones included) or one
   near the extremes. *)
let gen_env st =
  let n = Random.State.int st 3 in
  let syms = List.filteri (fun i _ -> i <= n) [ "N"; "M"; "K" ] in
  let env =
    List.fold_left
      (fun env s ->
        if Random.State.int st 4 = 0 then env
        else Assume.assume_ge s (gen_int st) env)
      Assume.empty syms
  in
  (syms, env)

(* Hand-made cases at the edges the two procedures reach in different
   orders: a constant of [min_int] (the reference's [p - 1] and [-p]
   overflow), shifted constants that land on [max_int + 1] or
   [min_int], and an unbounded symbol next to a [min_int] coefficient. *)
let edge_cases =
  let n = Poly.sym "N" and m = Poly.sym "M" in
  let env = Assume.assume_ge "N" 1 (Assume.assume_ge "M" 1 Assume.empty) in
  let c = Poly.const in
  let only_n = Assume.assume_ge "N" 5 Assume.empty in
  [ (env, c min_int, n);
    (env, c max_int, c min_int);
    (only_n, Poly.add (c min_int) n, n);
    (env, Poly.sub (Poly.add (c max_int) n) m, m);
    (env, Poly.add (c (max_int - 1)) n, c 1);
    (env, Poly.sub (c (min_int + 1)) n, Poly.neg n);
    (only_n, Poly.add (Poly.monomial min_int (Monomial.of_sym "M")) n, m);
    (Assume.assume_ge "N" min_int Assume.empty, Poly.neg n, n);
    (Assume.assume_ge "N" max_int Assume.empty, Poly.add n (c (-1)), n) ]

let test_decisions_match_reference () =
  let st = Random.State.make [| 30 |] in
  let cases = ref edge_cases and made = ref 0 in
  while !made < 20_000 do
    let syms, env = gen_env st in
    let deg = Random.State.int st 4 in
    match (gen_poly st ~deg syms, gen_poly st ~deg syms) with
    | Some p, Some q ->
        incr made;
        cases := (env, p, q) :: !cases
    | _ -> ()
  done;
  let overflowed = ref 0 and decided = ref 0 and differ = ref [] in
  List.iter
    (fun (env, p, q) ->
      let want = answers_reference env p q and got = answers_new env p q in
      List.iter
        (fun a ->
          if String.ends_with ~suffix:"=overflow" a then incr overflowed;
          if String.ends_with ~suffix:"=true" a then incr decided)
        want;
      if got <> want then
        differ :=
          Format.asprintf "p = %s, q = %s, env = %a: %s / %s" (Poly.to_string p)
            (Poly.to_string q) Assume.pp env (String.concat " " want)
            (String.concat " " got)
          :: !differ)
    !cases;
  Alcotest.(check bool) "some answers overflow" true (!overflowed > 0);
  Alcotest.(check bool) "some answers decided" true (!decided > 0);
  Alcotest.(check (list string)) "answers unlike the reference" []
    (List.rev !differ)

let () =
  Alcotest.run "dlz_symbolic"
    [
      ("monomial", monomial_units);
      ("poly", poly_units);
      ("poly-props", List.map QCheck_alcotest.to_alcotest poly_props);
      ("assume", assume_units);
      ("assume-props", List.map QCheck_alcotest.to_alcotest assume_props);
      ( "assume-reference",
        [ Alcotest.test_case "decisions = subst-based reference" `Quick
            test_decisions_match_reference ] );
    ]
