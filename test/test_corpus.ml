(* Tests for dlz_corpus: determinism, detection of each linearized idiom,
   and the Figure-1 counts. *)

module Corpus = Dlz_corpus.Corpus
module Ast = Dlz_ir.Ast
module Access = Dlz_ir.Access
module Affine = Dlz_ir.Affine
module Poly = Dlz_symbolic.Poly
module F77 = Dlz_frontend.F77_parser

let spec name =
  List.find (fun s -> s.Corpus.name = name) Corpus.riceps

let units =
  [
    Alcotest.test_case "deterministic generation" `Quick (fun () ->
        let s = spec "SPHOT" in
        let a = Ast.to_string (Corpus.generate s) in
        let b = Ast.to_string (Corpus.generate s) in
        Alcotest.(check bool) "identical" true (String.equal a b));
    Alcotest.test_case "line counts reach the target" `Quick (fun () ->
        List.iter
          (fun s ->
            let lines = Ast.count_lines (Corpus.generate s) in
            if lines < s.Corpus.target_lines then
              Alcotest.failf "%s has %d lines, target %d" s.Corpus.name lines
                s.Corpus.target_lines)
          Corpus.riceps);
    Alcotest.test_case "generated programs re-parse" `Quick (fun () ->
        List.iter
          (fun name ->
            let s = spec name in
            let text = Ast.to_string (Corpus.generate s) in
            let reparsed = F77.parse text in
            Alcotest.(check string) (name ^ " fixpoint") text
              (Ast.to_string reparsed))
          [ "LINPACKD"; "SPHOT"; "QCD" ]);
    Alcotest.test_case "figure1 counts equal planted" `Quick (fun () ->
        List.iter
          (fun (r : Corpus.row) ->
            Alcotest.(check int)
              (r.r_spec.Corpus.name ^ " count")
              r.r_spec.Corpus.planted r.r_counted)
          (Corpus.figure1 ()));
    Alcotest.test_case "paper lower bounds satisfied" `Quick (fun () ->
        List.iter
          (fun (r : Corpus.row) ->
            let reported = r.r_spec.Corpus.reported in
            let ok =
              if String.length reported > 0 && reported.[0] = '>' then
                r.r_counted > int_of_string (String.sub reported 1
                                               (String.length reported - 1))
              else r.r_counted = int_of_string reported
            in
            if not ok then
              Alcotest.failf "%s: counted %d vs paper %s" r.r_spec.Corpus.name
                r.r_counted reported)
          (Corpus.figure1 ()));
    (* [Reshape.apply] must extract a program's accesses once: once per
       1-d array, this case would not finish on BOAST or CCM. *)
    Alcotest.test_case "reshape every program" `Quick (fun () ->
        let expected =
          [ ("BOAST", 14); ("CCM", 13); ("TRACK", 2); ("WANAL1", 2) ]
        in
        List.iter
          (fun s ->
            let name = s.Corpus.name in
            let prog =
              Dlz_passes.Pipeline.prepare_program (Corpus.generate s)
            in
            let _, plans =
              Dlz_core.Reshape.apply ~env:Dlz_symbolic.Assume.empty prog
            in
            Alcotest.(check int) (name ^ " plans")
              (Option.value (List.assoc_opt name expected) ~default:0)
              (List.length plans))
          Corpus.riceps);
  ]

(* Detection unit cases for is_linearized_access. *)
let mk_access subs loops =
  {
    Access.acc_id = 0;
    stmt_id = 0;
    stmt_name = "S1";
    array = "A";
    rw = `Write;
    loops =
      List.map (fun v -> { Access.l_var = v; l_ub = Poly.const 9 }) loops;
    subs;
  }

let aff_of terms konst =
  List.fold_left
    (fun acc (c, v) -> Affine.add acc (Affine.term (Poly.const c) v))
    (Affine.const (Poly.const konst))
    terms

let detect_units =
  [
    Alcotest.test_case "i + 10j is linearized" `Quick (fun () ->
        let a =
          mk_access [ Access.Aff (aff_of [ (1, "I"); (10, "J") ] 0) ] [ "I"; "J" ]
        in
        Alcotest.(check bool) "yes" true (Corpus.is_linearized_access a));
    Alcotest.test_case "i + j is not" `Quick (fun () ->
        let a =
          mk_access [ Access.Aff (aff_of [ (1, "I"); (1, "J") ] 0) ] [ "I"; "J" ]
        in
        Alcotest.(check bool) "no" false (Corpus.is_linearized_access a));
    Alcotest.test_case "i - j is not (sign-normalized)" `Quick (fun () ->
        let a =
          mk_access [ Access.Aff (aff_of [ (1, "I"); (-1, "J") ] 0) ] [ "I"; "J" ]
        in
        Alcotest.(check bool) "no" false (Corpus.is_linearized_access a));
    Alcotest.test_case "single variable is not" `Quick (fun () ->
        let a = mk_access [ Access.Aff (aff_of [ (10, "I") ] 3) ] [ "I" ] in
        Alcotest.(check bool) "no" false (Corpus.is_linearized_access a));
    Alcotest.test_case "symbolic stride is linearized" `Quick (fun () ->
        let f =
          Affine.add
            (Affine.term Poly.one "I")
            (Affine.term (Poly.sym "KK") "J")
        in
        let a = mk_access [ Access.Aff f ] [ "I"; "J" ] in
        Alcotest.(check bool) "yes" true (Corpus.is_linearized_access a));
    Alcotest.test_case "opaque subscript is not" `Quick (fun () ->
        let a = mk_access [ Access.Opaque ] [ "I" ] in
        Alcotest.(check bool) "no" false (Corpus.is_linearized_access a));
  ]

let ablation_units =
  [
    Alcotest.test_case "delinearization dominates the classic tests" `Quick
      (fun () ->
        let rows = Corpus.parallel_ablation () in
        Alcotest.(check bool) "nonempty" true (rows <> []);
        List.iter
          (fun (r : Corpus.ablation_row) ->
            if r.Corpus.a_parallel_delin < r.Corpus.a_parallel_classic then
              Alcotest.failf "%s: classic beats delin?!" r.Corpus.a_name;
            if r.Corpus.a_parallel_delin > r.Corpus.a_nests then
              Alcotest.failf "%s: more parallel than nests" r.Corpus.a_name)
          rows;
        (* The gap is the paper's value proposition: strictly positive
           overall on this corpus. *)
        let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
        Alcotest.(check bool) "strict improvement" true
          (total (fun (r : Corpus.ablation_row) -> r.Corpus.a_parallel_delin)
          > total (fun (r : Corpus.ablation_row) ->
                r.Corpus.a_parallel_classic)));
  ]

let () =
  Alcotest.run "dlz_corpus"
    [
      ("corpus", units);
      ("detection", detect_units);
      ("ablation", ablation_units);
    ]
