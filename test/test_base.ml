(* Unit and property tests for dlz_base: checked arithmetic, number
   theory, intervals, the PRNG, budgets and the table
   renderer. *)

open Dlz_base

let check_raises_overflow name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Intx.Overflow _ -> ()
      | _ -> Alcotest.failf "%s: expected Overflow" name)

(* --- Intx ---------------------------------------------------------------- *)

let intx_units =
  [
    Alcotest.test_case "add basics" `Quick (fun () ->
        Alcotest.(check int) "2+3" 5 (Intx.add 2 3);
        Alcotest.(check int) "max+0" max_int (Intx.add max_int 0);
        Alcotest.(check int) "min+max" (-1) (Intx.add min_int max_int));
    check_raises_overflow "add overflows" (fun () -> Intx.add max_int 1);
    check_raises_overflow "add underflows" (fun () -> Intx.add min_int (-1));
    Alcotest.test_case "sub basics" `Quick (fun () ->
        Alcotest.(check int) "3-5" (-2) (Intx.sub 3 5);
        Alcotest.(check int) "0-min+... stays" (max_int - 1)
          (Intx.sub (max_int - 1) 0));
    check_raises_overflow "sub overflows" (fun () -> Intx.sub max_int (-1));
    check_raises_overflow "sub min_int" (fun () -> Intx.sub 2 min_int);
    Alcotest.test_case "mul basics" `Quick (fun () ->
        Alcotest.(check int) "6*7" 42 (Intx.mul 6 7);
        Alcotest.(check int) "0*max" 0 (Intx.mul 0 max_int);
        Alcotest.(check int) "neg" (-42) (Intx.mul (-6) 7));
    check_raises_overflow "mul overflows" (fun () ->
        Intx.mul (max_int / 2) 3);
    check_raises_overflow "mul min by -1" (fun () -> Intx.mul min_int (-1));
    check_raises_overflow "neg min_int" (fun () -> Intx.neg min_int);
    check_raises_overflow "abs min_int" (fun () -> Intx.abs min_int);
    Alcotest.test_case "pow" `Quick (fun () ->
        Alcotest.(check int) "2^10" 1024 (Intx.pow 2 10);
        Alcotest.(check int) "x^0" 1 (Intx.pow 12345 0);
        Alcotest.(check int) "x^1" (-7) (Intx.pow (-7) 1);
        Alcotest.(check int) "(-2)^3" (-8) (Intx.pow (-2) 3));
    check_raises_overflow "pow overflows" (fun () -> Intx.pow 10 30);
    Alcotest.test_case "pow negative exponent" `Quick (fun () ->
        match Intx.pow 2 (-1) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "pos/neg parts" `Quick (fun () ->
        Alcotest.(check int) "pos of 5" 5 (Intx.pos_part 5);
        Alcotest.(check int) "pos of -5" 0 (Intx.pos_part (-5));
        Alcotest.(check int) "neg of 5" 0 (Intx.neg_part 5);
        Alcotest.(check int) "neg of -5" (-5) (Intx.neg_part (-5));
        Alcotest.(check int) "pos of 0" 0 (Intx.pos_part 0);
        Alcotest.(check int) "neg of 0" 0 (Intx.neg_part 0));
    Alcotest.test_case "sum" `Quick (fun () ->
        Alcotest.(check int) "sum" 10 (Intx.sum [ 1; 2; 3; 4 ]);
        Alcotest.(check int) "empty" 0 (Intx.sum []));
  ]

let intx_props =
  let small = QCheck.int_range (-10000) 10000 in
  [
    QCheck.Test.make ~name:"c = c+ + c-" ~count:500 small (fun c ->
        Intx.pos_part c + Intx.neg_part c = c);
    QCheck.Test.make ~name:"checked ops agree with native in range" ~count:500
      (QCheck.pair small small) (fun (a, b) ->
        Intx.add a b = a + b && Intx.sub a b = a - b && Intx.mul a b = a * b);
  ]

(* --- Varint -------------------------------------------------------------- *)

let varint_bytes v =
  let b = Bytes.create Varint.max_bytes in
  Bytes.sub_string b 0 (Varint.write b 0 v)

let check_malformed name reason s ~limit =
  match Varint.read s ~limit 0 with
  | exception Varint.Malformed m -> Alcotest.(check string) name reason m
  | v, _ -> Alcotest.failf "%s: decoded %d" name v

let varint_units =
  [
    Alcotest.test_case "round-trip at the length steps" `Quick (fun () ->
        List.iter
          (fun (v, len) ->
            let s = varint_bytes v in
            let name = string_of_int v in
            Alcotest.(check int) (name ^ ": length") len (String.length s);
            let b = Buffer.create 9 in
            Varint.add b v;
            Alcotest.(check string) (name ^ ": add = write") s
              (Buffer.contents b);
            Alcotest.(check (pair int int)) (name ^ ": read") (v, len)
              (Varint.read s ~limit:len 0))
          [ (0, 1); (1, 1); (-1, 1); (63, 1); (-63, 1); (64, 2); (-64, 1);
            (8191, 2); (-8191, 2); (8192, 3); (-8192, 2); (max_int, 9);
            (min_int, 9) ]);
    Alcotest.test_case "zigzag interleaves signs" `Quick (fun () ->
        Alcotest.(check (list int)) "0, -1, 1, -2, 2" [ 0; 1; 2; 3; 4 ]
          (List.map Varint.zigzag [ 0; -1; 1; -2; 2 ]);
        (* The top codes, read unsigned: 2^63 - 2 and 2^63 - 1. *)
        Alcotest.(check (list int)) "max_int, min_int" [ -2; -1 ]
          (List.map Varint.zigzag [ max_int; min_int ]);
        List.iter
          (fun v ->
            Alcotest.(check int) "unzigzag (zigzag v)" v
              (Varint.unzigzag (Varint.zigzag v));
            Alcotest.(check int) "zigzag (unzigzag u)" v
              (Varint.zigzag (Varint.unzigzag v)))
          [ 0; 1; -1; 2; -2; max_int; min_int; max_int - 1; min_int + 1 ]);
    Alcotest.test_case "truncated and over-long refused" `Quick (fun () ->
        check_malformed "empty" "truncated varint" "" ~limit:0;
        check_malformed "continuation at the end" "truncated varint" "\x80"
          ~limit:1;
        check_malformed "cut by the limit" "truncated varint"
          (varint_bytes 8192) ~limit:2;
        check_malformed "max_int less its last byte" "truncated varint"
          (varint_bytes max_int) ~limit:8;
        check_malformed "ten bytes" "over-long varint"
          (String.make 9 '\xff' ^ "\x00")
          ~limit:10;
        Alcotest.(check (pair int int)) "read from an offset" (-8192, 4)
          (Varint.read ("\x7f\x00" ^ varint_bytes (-8192)) ~limit:4 2));
  ]

let varint_props =
  [
    QCheck.Test.make ~name:"zigzag is a bijection" ~count:1000 QCheck.int
      (fun v ->
        Varint.unzigzag (Varint.zigzag v) = v
        && Varint.zigzag (Varint.unzigzag v) = v);
    QCheck.Test.make ~name:"concatenations decode back" ~count:500
      QCheck.(list int)
      (fun vs ->
        let b = Buffer.create 64 in
        List.iter (Varint.add b) vs;
        let s = Buffer.contents b in
        let rec back pos acc =
          if pos = String.length s then List.rev acc
          else
            let v, pos = Varint.read s ~limit:(String.length s) pos in
            back pos (v :: acc)
        in
        back 0 [] = vs);
  ]

(* --- Numth --------------------------------------------------------------- *)

let numth_units =
  [
    Alcotest.test_case "gcd basics" `Quick (fun () ->
        Alcotest.(check int) "gcd 12 18" 6 (Numth.gcd 12 18);
        Alcotest.(check int) "gcd 0 0" 0 (Numth.gcd 0 0);
        Alcotest.(check int) "gcd -4 6" 2 (Numth.gcd (-4) 6);
        Alcotest.(check int) "gcd 0 5" 5 (Numth.gcd 0 5);
        Alcotest.(check int) "gcd_list" 10 (Numth.gcd_list [ 100; -10; 30 ]);
        Alcotest.(check int) "gcd_list []" 0 (Numth.gcd_list []));
    Alcotest.test_case "lcm" `Quick (fun () ->
        Alcotest.(check int) "lcm 4 6" 12 (Numth.lcm 4 6);
        Alcotest.(check int) "lcm 0 5" 0 (Numth.lcm 0 5);
        Alcotest.(check int) "lcm -4 6" 12 (Numth.lcm (-4) 6));
    Alcotest.test_case "floor div/mod" `Quick (fun () ->
        Alcotest.(check int) "fdiv 7 2" 3 (Numth.fdiv 7 2);
        Alcotest.(check int) "fdiv -7 2" (-4) (Numth.fdiv (-7) 2);
        Alcotest.(check int) "fdiv 7 -2" (-4) (Numth.fdiv 7 (-2));
        Alcotest.(check int) "fmod -7 2" 1 (Numth.fmod (-7) 2);
        Alcotest.(check int) "cdiv 7 2" 4 (Numth.cdiv 7 2);
        Alcotest.(check int) "cdiv -7 2" (-3) (Numth.cdiv (-7) 2));
    Alcotest.test_case "symmetric_mod" `Quick (fun () ->
        Alcotest.(check int) "-110 mod 100" (-10)
          (Numth.symmetric_mod (-110) 100);
        Alcotest.(check int) "7 mod 4" (-1) (Numth.symmetric_mod 7 4);
        Alcotest.(check int) "6 mod 4 (tie -> +)" 2 (Numth.symmetric_mod 6 4);
        Alcotest.(check int) "0 mod 3" 0 (Numth.symmetric_mod 0 3));
    Alcotest.test_case "nearest_residue (fig5 case)" `Quick (fun () ->
        (* -110 mod 100 nearest to -5 must be -10 (paper Figure 5). *)
        Alcotest.(check int) "fig5 residue" (-10)
          (Numth.nearest_residue (-110) 100 (-5)));
    Alcotest.test_case "typed zero-divisor faults" `Quick (fun () ->
        (* A bare [Stdlib.Division_by_zero] would escape the engine's
           fault taxonomy; the helpers must raise the typed error. *)
        let check_div0 name f =
          match f () with
          | exception Intx.Div_by_zero op ->
              Alcotest.(check string) (name ^ " payload") name op
          | exception e ->
              Alcotest.failf "%s: expected Div_by_zero, got %s" name
                (Printexc.to_string e)
          | _ -> Alcotest.failf "%s: expected Div_by_zero" name
        in
        check_div0 "fdiv" (fun () -> Numth.fdiv 7 0);
        check_div0 "fmod" (fun () -> Numth.fmod 7 0);
        check_div0 "cdiv" (fun () -> Numth.cdiv 7 0);
        check_div0 "symmetric_mod" (fun () -> Numth.symmetric_mod 7 0);
        check_div0 "symmetric_mod" (fun () -> Numth.symmetric_mod 7 (-4));
        check_div0 "nearest_residue" (fun () -> Numth.nearest_residue 7 0 1));
    Alcotest.test_case "division min_int edge faults, not wraps" `Quick
      (fun () ->
        (* Native [/] silently wraps on (min_int, -1); the floor/ceil
           wrappers must fault into the taxonomy instead. *)
        (match Numth.fdiv min_int (-1) with
        | exception Intx.Overflow _ -> ()
        | q -> Alcotest.failf "fdiv min_int -1: expected Overflow, got %d" q);
        (match Numth.cdiv min_int (-1) with
        | exception Intx.Overflow _ -> ()
        | q -> Alcotest.failf "cdiv min_int -1: expected Overflow, got %d" q);
        Alcotest.(check int) "fdiv min_int 1" min_int (Numth.fdiv min_int 1);
        Alcotest.(check int) "cdiv min_int 1" min_int (Numth.cdiv min_int 1);
        Alcotest.(check int) "fdiv min_int 2" (min_int / 2)
          (Numth.fdiv min_int 2);
        Alcotest.(check int) "fmod min_int 2" 0 (Numth.fmod min_int 2));
    Alcotest.test_case "symmetric_mod at extreme magnitudes" `Quick (fun () ->
        (* Counterexamples from the differential-oracle sweep: the old
           [2*r > g] comparison wrapped for moduli above [max_int/2] and
           picked the far residue.  The fuzzer's near-overflow family
           hits these through Algo.residue's symmetric remainders. *)
        Alcotest.(check int) "just past the midpoint goes negative"
          (-(max_int / 2))
          (Numth.symmetric_mod ((max_int / 2) + 1) max_int);
        Alcotest.(check int) "midpoint stays positive" (max_int / 2)
          (Numth.symmetric_mod (max_int / 2) max_int);
        Alcotest.(check int) "g-1 is -1" (-1)
          (Numth.symmetric_mod (max_int - 1) max_int);
        Alcotest.(check int) "negative side folds up" (max_int / 2)
          (Numth.symmetric_mod (-((max_int / 2) + 1)) max_int);
        (* Congruence and minimality survive at the extremes. *)
        let g = max_int - 2 in
        List.iter
          (fun a ->
            let r = Numth.symmetric_mod a g in
            Alcotest.(check int) "congruent" 0 ((a - r) mod g);
            (* |r| minimal: 2r <= g and 2r > -g, phrased without any
               doubling or subtraction that wraps at these magnitudes
               (each side of [||] makes the other trivially true). *)
            Alcotest.(check bool) "minimal" true
              ((r <= 0 || r <= g - r) && (r >= 0 || -r < g + r)))
          [ max_int; min_int + 1; max_int / 3 * 2; 1 - max_int ]);
    Alcotest.test_case "nearest_residue at extreme magnitudes" `Quick
      (fun () ->
        (* The rejected representative may not fit in an int even when
           the chosen one does; the old code materialized both. *)
        Alcotest.(check int) "huge modulus, nearby target" 99
          (Numth.nearest_residue 99 max_int 100);
        Alcotest.(check int) "wraps to the class below the target"
          (max_int - 1)
          (Numth.nearest_residue (-1) max_int (max_int - 2));
        Alcotest.(check int) "negative target" (-99)
          (Numth.nearest_residue (-99) max_int (-100));
        (* The rejected representative here sits at [target + g - 1],
           far outside the int range if materialized eagerly. *)
        Alcotest.(check int) "rejected representative would not fit"
          (max_int - 2)
          (Numth.nearest_residue (max_int - 2) (max_int - 2) (max_int - 1)));
    Alcotest.test_case "egcd at extreme magnitudes" `Quick (fun () ->
        (* Bezout identity on near-max inputs: the quotient chain must
           either stay exact or fault, never wrap. *)
        List.iter
          (fun (a, b) ->
            match Numth.egcd a b with
            | g, x, y ->
                Alcotest.(check int) "gcd part" (Numth.gcd a b) g;
                Alcotest.(check bool) "bezout" true
                  ((a * x) + (b * y) = g)
            | exception Intx.Overflow _ -> ())
          [
            (max_int, max_int - 1);
            (max_int, 2);
            (max_int - 1, -(max_int / 2));
            (min_int + 1, 3);
          ]);
    Alcotest.test_case "divides" `Quick (fun () ->
        Alcotest.(check bool) "3 | 9" true (Numth.divides 3 9);
        Alcotest.(check bool) "3 | 10" false (Numth.divides 3 10);
        Alcotest.(check bool) "0 | 0" true (Numth.divides 0 0);
        Alcotest.(check bool) "0 | 5" false (Numth.divides 0 5);
        Alcotest.(check bool) "-3 | 9" true (Numth.divides (-3) 9));
  ]

let numth_props =
  let small = QCheck.int_range (-2000) 2000 in
  let pos = QCheck.int_range 1 500 in
  [
    QCheck.Test.make ~name:"egcd Bezout identity" ~count:500
      (QCheck.pair small small) (fun (a, b) ->
        let g, x, y = Numth.egcd a b in
        g = Numth.gcd a b && (a * x) + (b * y) = g);
    QCheck.Test.make ~name:"fdiv/fmod division law" ~count:500
      (QCheck.pair small (QCheck.int_range (-60) 60)) (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q = Numth.fdiv a b and r = Numth.fmod a b in
        (b * q) + r = a && if b > 0 then r >= 0 && r < b else r <= 0 && r > b);
    QCheck.Test.make ~name:"symmetric_mod congruent and small" ~count:500
      (QCheck.pair small pos) (fun (a, g) ->
        let r = Numth.symmetric_mod a g in
        (a - r) mod g = 0 && 2 * r <= g && 2 * r > -g);
    QCheck.Test.make ~name:"nearest_residue is congruent and nearest"
      ~count:500
      (QCheck.triple small pos small)
      (fun (a, g, target) ->
        let r = Numth.nearest_residue a g target in
        (a - r) mod g = 0
        && abs (r - target) * 2 <= g
           (* no congruent value is strictly closer *)
        && abs (r - target) <= abs (r - g - target)
        && abs (r - target) <= abs (r + g - target));
  ]

(* --- Ivl ----------------------------------------------------------------- *)

let ivl_units =
  [
    Alcotest.test_case "construction" `Quick (fun () ->
        Alcotest.(check bool) "empty when lo>hi" true
          (Ivl.is_empty (Ivl.make 3 2));
        Alcotest.(check bool) "point not empty" false
          (Ivl.is_empty (Ivl.point 5));
        Alcotest.(check int) "lo" (-2) (Ivl.lo (Ivl.make (-2) 7));
        Alcotest.(check int) "hi" 7 (Ivl.hi (Ivl.make (-2) 7)));
    Alcotest.test_case "ops" `Quick (fun () ->
        Alcotest.(check bool) "add" true
          (Ivl.equal (Ivl.make 3 12) (Ivl.add (Ivl.make 1 4) (Ivl.make 2 8)));
        Alcotest.(check bool) "scale by neg flips" true
          (Ivl.equal (Ivl.make (-8) (-2)) (Ivl.scale (-2) (Ivl.make 1 4)));
        Alcotest.(check bool) "neg" true
          (Ivl.equal (Ivl.make (-4) (-1)) (Ivl.neg (Ivl.make 1 4)));
        Alcotest.(check bool) "inter disjoint empty" true
          (Ivl.is_empty (Ivl.inter (Ivl.make 0 1) (Ivl.make 3 4)));
        Alcotest.(check int) "max_abs" 7 (Ivl.max_abs (Ivl.make (-7) 3));
        Alcotest.(check int) "width of empty" (-1) (Ivl.width Ivl.empty));
    Alcotest.test_case "empty propagates" `Quick (fun () ->
        Alcotest.(check bool) "add empty" true
          (Ivl.is_empty (Ivl.add Ivl.empty (Ivl.make 0 3)));
        Alcotest.(check bool) "join with empty is identity" true
          (Ivl.equal (Ivl.make 1 2) (Ivl.join Ivl.empty (Ivl.make 1 2))));
  ]

let arb_ivl =
  QCheck.map
    (fun (a, b) -> Ivl.make (min a b) (max a b))
    QCheck.(pair (int_range (-50) 50) (int_range (-50) 50))

let ivl_props =
  let mem_points iv =
    if Ivl.is_empty iv then []
    else List.init (Ivl.width iv + 1) (fun i -> Ivl.lo iv + i)
  in
  [
    QCheck.Test.make ~name:"add is exact Minkowski sum" ~count:200
      (QCheck.pair arb_ivl arb_ivl) (fun (a, b) ->
        let s = Ivl.add a b in
        List.for_all
          (fun x -> List.for_all (fun y -> Ivl.mem (x + y) s) (mem_points b))
          (mem_points a));
    QCheck.Test.make ~name:"scale exact on endpoints" ~count:300
      (QCheck.pair (QCheck.int_range (-9) 9) arb_ivl) (fun (c, iv) ->
        let s = Ivl.scale c iv in
        Ivl.is_empty iv
        || (Ivl.mem (c * Ivl.lo iv) s && Ivl.mem (c * Ivl.hi iv) s));
    QCheck.Test.make ~name:"inter is conjunction of membership" ~count:300
      (QCheck.triple (QCheck.int_range (-60) 60) arb_ivl arb_ivl)
      (fun (x, a, b) ->
        Ivl.mem x (Ivl.inter a b) = (Ivl.mem x a && Ivl.mem x b));
    QCheck.Test.make ~name:"join contains both" ~count:300
      (QCheck.pair arb_ivl arb_ivl) (fun (a, b) ->
        let j = Ivl.join a b in
        List.for_all (fun x -> Ivl.mem x j) (mem_points a)
        && List.for_all (fun x -> Ivl.mem x j) (mem_points b));
  ]

(* --- Prng / Table -------------------------------------------------------- *)

let prng_units =
  [
    Alcotest.test_case "deterministic" `Quick (fun () ->
        let a = Prng.create 7L and b = Prng.create 7L in
        for _ = 1 to 50 do
          Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
        done);
    Alcotest.test_case "ranges" `Quick (fun () ->
        let g = Prng.create 1L in
        for _ = 1 to 500 do
          let x = Prng.int_in g (-3) 9 in
          if x < -3 || x > 9 then Alcotest.fail "out of range"
        done);
    Alcotest.test_case "split decorrelates" `Quick (fun () ->
        let g = Prng.create 3L in
        let h = Prng.split g in
        Alcotest.(check bool) "different streams" true
          (Prng.next64 g <> Prng.next64 h));
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let g = Prng.create 5L in
        let arr = Array.init 20 Fun.id in
        Prng.shuffle g arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "same multiset"
          (Array.init 20 Fun.id) sorted);
  ]

let table_units =
  [
    Alcotest.test_case "renders aligned" `Quick (fun () ->
        let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "a"; "b" ] in
        Table.add_row t [ "x"; "1" ];
        Table.add_row t [ "yy"; "22" ];
        let s = Table.render t in
        Alcotest.(check bool) "contains header" true
          (String.length s > 0 && String.sub s 0 1 = "|");
        let lines = String.split_on_char '\n' s in
        let widths =
          List.filter_map
            (fun l -> if l = "" then None else Some (String.length l))
            lines
        in
        Alcotest.(check bool) "all lines same width" true
          (match widths with [] -> false | w :: ws -> List.for_all (( = ) w) ws));
    Alcotest.test_case "short rows pad" `Quick (fun () ->
        let t = Table.create [ "a"; "b"; "c" ] in
        Table.add_row t [ "only" ];
        Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0));
    Alcotest.test_case "too-long row rejected" `Quick (fun () ->
        let t = Table.create [ "a" ] in
        match Table.add_row t [ "x"; "y" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* --- Budget -------------------------------------------------------------- *)

let budget_units =
  [
    Alcotest.test_case "unlimited never raises" `Quick (fun () ->
        let b = Budget.unlimited in
        for _ = 1 to 10_000 do
          Budget.spend b
        done;
        Alcotest.(check bool) "is_unlimited" true (Budget.is_unlimited b);
        Alcotest.(check bool) "not exhausted" true (Budget.exhausted b = None);
        Alcotest.(check bool)
          "no fuel bound" true
          (Budget.remaining_fuel b = None));
    Alcotest.test_case "fuel runs out at the limit" `Quick (fun () ->
        let b = Budget.create ~fuel:10 () in
        for _ = 1 to 10 do
          Budget.spend b
        done;
        Alcotest.(check bool)
          "probe reports fuel" true
          (Budget.exhausted b = Some "fuel");
        match Budget.spend b with
        | exception Budget.Exhausted "fuel" -> ()
        | () -> Alcotest.fail "11th spend should exhaust"
        | exception e -> raise e);
    Alcotest.test_case "cost-weighted spending" `Quick (fun () ->
        let b = Budget.create ~fuel:100 () in
        Budget.spend ~cost:60 b;
        Alcotest.(check bool)
          "40 left" true
          (Budget.remaining_fuel b = Some 40);
        match Budget.spend ~cost:41 b with
        | exception Budget.Exhausted "fuel" -> ()
        | () -> Alcotest.fail "over-cost spend should exhaust"
        | exception e -> raise e);
    Alcotest.test_case "sub-budget drains the parent chain" `Quick (fun () ->
        let parent = Budget.create ~fuel:5 () in
        let child = Budget.sub ~fuel:100 parent in
        Alcotest.(check bool)
          "remaining is the chain min" true
          (Budget.remaining_fuel child = Some 5);
        (match
           for _ = 1 to 6 do
             Budget.spend child
           done
         with
        | exception Budget.Exhausted "fuel" -> ()
        | () -> Alcotest.fail "parent cap should bind the child"
        | exception e -> raise e);
        Alcotest.(check bool)
          "parent drained through the child" true
          (Budget.exhausted parent = Some "fuel"));
    Alcotest.test_case "sub without limits is the parent itself" `Quick
      (fun () ->
        let parent = Budget.create ~fuel:3 () in
        let child = Budget.sub parent in
        Budget.spend child;
        Alcotest.(check bool)
          "same fuel pool" true
          (Budget.remaining_fuel parent = Some 2));
    Alcotest.test_case "expired deadline raises on first spend" `Quick
      (fun () ->
        let b = Budget.create ~timeout_ms:0 () in
        match Budget.spend b with
        | exception Budget.Exhausted "deadline" -> ()
        | () -> Alcotest.fail "zero timeout should fire immediately"
        | exception e -> raise e);
    Alcotest.test_case "child inherits the tighter parent deadline" `Quick
      (fun () ->
        let parent = Budget.create ~timeout_ms:0 () in
        let child = Budget.sub ~timeout_ms:60_000 parent in
        Alcotest.(check bool)
          "probe sees the parent deadline" true
          (Budget.exhausted child = Some "deadline"));
    Alcotest.test_case "check raises, generous budget does not" `Quick
      (fun () ->
        let b = Budget.create ~fuel:1_000 ~timeout_ms:60_000 () in
        Budget.check b;
        Alcotest.(check bool) "bounded" false (Budget.is_unlimited b));
    (* Regression: a huge timeout used to overflow the ns deadline
       (now + ms*1e6 wrapping negative), making the child spuriously
       exhausted from birth.  The arithmetic must saturate instead. *)
    Alcotest.test_case "huge timeout saturates instead of wrapping" `Quick
      (fun () ->
        let b = Budget.create ~timeout_ms:max_int () in
        Budget.spend b;
        Alcotest.(check bool)
          "far-future deadline not exhausted" true
          (Budget.exhausted b = None);
        let parent = Budget.create ~fuel:10 () in
        let child = Budget.sub ~timeout_ms:max_int parent in
        Budget.spend child;
        Alcotest.(check bool)
          "saturated child deadline not exhausted" true
          (Budget.exhausted child = None));
    Alcotest.test_case "parent deadline clamps a longer child ask" `Quick
      (fun () ->
        let parent = Budget.create ~timeout_ms:0 () in
        let child = Budget.sub ~timeout_ms:max_int parent in
        (* The child asked for forever; the parent's expired deadline
           must still bind. *)
        Alcotest.(check bool)
          "parent deadline binds" true
          (Budget.exhausted child = Some "deadline"));
  ]

let () =
  Alcotest.run "dlz_base"
    [
      ("intx", intx_units);
      ("intx-props", List.map QCheck_alcotest.to_alcotest intx_props);
      ("varint", varint_units @ List.map QCheck_alcotest.to_alcotest varint_props);
      ("numth", numth_units);
      ("numth-props", List.map QCheck_alcotest.to_alcotest numth_props);
      ("ivl", ivl_units);
      ("ivl-props", List.map QCheck_alcotest.to_alcotest ivl_props);
      ("prng", prng_units);
      ("budget", budget_units);
      ("table", table_units);
    ]
