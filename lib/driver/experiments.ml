module Table = Dlz_base.Table
module Prng = Dlz_base.Prng
module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Ast = Dlz_ir.Ast
module Access = Dlz_ir.Access
module Depeq = Dlz_deptest.Depeq
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Ddvec = Dlz_deptest.Ddvec
module Problem = Dlz_deptest.Problem
module Gcd_test = Dlz_deptest.Gcd_test
module Banerjee = Dlz_deptest.Banerjee
module Svpc = Dlz_deptest.Svpc
module Acyclic = Dlz_deptest.Acyclic
module Residue = Dlz_deptest.Residue
module Fm = Dlz_deptest.Fm
module Exact = Dlz_deptest.Exact
module Omega = Dlz_deptest.Omega
module Lambda = Dlz_deptest.Lambda
module Symeq = Dlz_deptest.Symeq
module Classify = Dlz_deptest.Classify
module Algo = Dlz_core.Algo
module Symalgo = Dlz_core.Symalgo
module Analyze = Dlz_engine.Analyze
module Cascade = Dlz_engine.Cascade
module Reshape = Dlz_core.Reshape
module Codegen = Dlz_vec.Codegen
module Corpus = Dlz_corpus.Corpus
module F77 = Dlz_frontend.F77_parser
module C_parser = Dlz_frontend.C_parser
module Pipeline = Dlz_passes.Pipeline
module Pointers = Dlz_passes.Pointers

let buf_report f =
  let buf = Buffer.create 1024 in
  f buf;
  Buffer.contents buf

let heading buf title =
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length title) '=');
  Buffer.add_string buf "\n\n"

let para buf s =
  Buffer.add_string buf s;
  Buffer.add_string buf "\n\n"

let prepare src = Pipeline.prepare_program (F77.parse src)

(* ---------------------------------------------------------------- E1 -- *)

let classic_tests : (string * (Depeq.t -> Verdict.t)) list =
  [
    ("GCD test [AK87, Ban88]", Gcd_test.test ?dirs:None);
    ("Banerjee inequalities [AK87, WB87]", Banerjee.test ?dirs:None);
    ("Single Variable Per Constraint [MHL91]", Svpc.test);
    ("Acyclic test [MHL91]", Acyclic.test);
    ("Lambda-test [LYZ89]", fun eq -> Lambda.test [ eq ]);
    ("Simple Loop Residue [MHL91, Sho81]", Residue.test);
    ("Fourier-Motzkin, real [DE73, MHL91]", Fm.test Fm.Real);
    ("Fourier-Motzkin + tightening [Pug91]", Fm.test Fm.Tightened);
    ("Omega test [Pug91] (exact)", fun eq -> Omega.test [ eq ]);
  ]

let e1_rows () =
  let eq = Fragments.eq1 () in
  List.map (fun (name, test) -> (name, test eq)) classic_tests
  @ [
      ("Delinearization (this paper)", Algo.test eq);
      ("Exact integer solver (ground truth)", Exact.test [ eq ]);
    ]

let e1 () =
  buf_report (fun buf ->
      heading buf
        "E1: dependence tests on equation (1): i1 + 10*j1 = i2 + 10*j2 + 5";
      para buf
        "Paper claim: every listed classic technique fails to prove\n\
         independence (it has real but no integer solutions); normalization\n\
         (tightening) + Fourier-Motzkin proves it, and so does\n\
         delinearization, at a fraction of the cost.";
      let t =
        Table.create [ "Technique"; "Verdict"; "Proves independence?" ]
      in
      List.iter
        (fun (name, v) ->
          Table.add_row t
            [
              name;
              Verdict.to_string v;
              (if v = Verdict.Independent then "yes" else "no");
            ])
        (e1_rows ());
      Buffer.add_string buf (Table.render t))

(* ---------------------------------------------------------------- E2 -- *)

let e2 () =
  buf_report (fun buf ->
      heading buf "E2: Figure 1 — loop nests containing linearized references";
      para buf
        "RiCEPS itself is not distributable; the corpus is a synthetic\n\
         stand-in with planted linearized-reference nests (see DESIGN.md,\n\
         Substitutions).  The detector must recover the planted counts\n\
         through the normalization/induction/aliasing pipeline.";
      let t =
        Table.create
          [ "Program"; "Type"; "Lines"; "Paper"; "Planted"; "Counted"; "OK" ]
      in
      List.iter
        (fun (r : Corpus.row) ->
          Table.add_row t
            [
              r.r_spec.Corpus.name;
              r.r_spec.Corpus.domain;
              string_of_int r.r_lines;
              r.r_spec.Corpus.reported;
              string_of_int r.r_spec.Corpus.planted;
              string_of_int r.r_counted;
              (if r.r_counted = r.r_spec.Corpus.planted then "yes" else "NO");
            ])
        (Corpus.figure1 ());
      Buffer.add_string buf (Table.render t);
      para buf "";
      para buf
        "Ablation (iii): of the linearized nests, how many are fully\n\
         parallel (every loop dependence-free) with delinearization vs\n\
         the classic tests.  Nests that stay non-parallel under both\n\
         carry genuine dependences (e.g. the shifted-stride idiom).";
      let t2 =
        Table.create
          [ "Program"; "Linearized nests"; "Parallel (delin)";
            "Parallel (classic)" ]
      in
      List.iter
        (fun (r : Corpus.ablation_row) ->
          Table.add_row t2
            [
              r.Corpus.a_name;
              string_of_int r.Corpus.a_nests;
              string_of_int r.Corpus.a_parallel_delin;
              string_of_int r.Corpus.a_parallel_classic;
            ])
        (Corpus.parallel_ablation ());
      Buffer.add_string buf (Table.render t2))

(* ---------------------------------------------------------------- E3 -- *)

let dep_pair_label (d : Analyze.dep) =
  Printf.sprintf "%s:%s -> %s:%s" d.Analyze.src.Access.stmt_name
    d.Analyze.src.Access.array d.Analyze.dst.Access.stmt_name
    d.Analyze.dst.Access.array

let e3_deps ?(jobs = 1) ?chunk () =
  Analyze.deps_of_program ~jobs ?chunk (prepare Fragments.fig3_program)

let e3_rows ?jobs ?chunk () =
  List.map
    (fun (d : Analyze.dep) ->
      ( dep_pair_label d,
        Dirvec.to_string d.Analyze.dirvec,
        Ddvec.to_string d.Analyze.ddvec ))
    (e3_deps ?jobs ?chunk ())

let e3 ?jobs ?chunk () =
  buf_report (fun buf ->
      heading buf "E3: Figure 3 — dependences of the Allen-Kennedy program";
      Buffer.add_string buf (Ast.to_string (prepare Fragments.fig3_program));
      Buffer.add_string buf "\n\n";
      let expected =
        [
          ("S2:B -> S2:B", "(*, =)", "(*, 0)");
          ("S2:B -> S3:B", "(*, =)", "(*, 0)");
          ("S3:A -> S3:A", "(*, =, =)", "(*, 0, 0)");
          ("S3:A -> S2:A", "(*, <)", "(*, +1)");
          ("S3:A -> S4:A", "(*, =)", "(*, 0)");
          ("S4:Y -> S1:Y", "(<)", "(<)");
        ]
      in
      let t =
        Table.create
          [ "Pair"; "Direction vector"; "Distance-direction"; "In paper?" ]
      in
      List.iter
        (fun (pair, dv, ddv) ->
          let in_paper =
            List.exists
              (fun (p, v, w) -> p = pair && v = dv && w = ddv)
              expected
          in
          Table.add_row t
            [ pair; dv; ddv; (if in_paper then "yes" else "extra") ])
        (e3_rows ?jobs ?chunk ());
      Buffer.add_string buf (Table.render t);
      para buf "";
      para buf
        "All six of the paper's rows are reproduced.  The additional\n\
         S4:Y -> S4:Y row is a genuine output dependence (Y(i+j) collides\n\
         for i1+j1 = i2+j2) that Figure 3 does not list.")

(* ---------------------------------------------------------------- E4 -- *)

let e4 () =
  buf_report (fun buf ->
      heading buf "E4: Figure 5 — trace of the algorithm on the 6-variable equation";
      let eq = Fragments.fig5_equation () in
      para buf (Depeq.to_string eq);
      let r = Algo.run ~n_common:3 ~common_ubs:[| 8; 9; 8 |] eq in
      let t =
        Table.create
          ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right;
                    Table.Right; Table.Right; Table.Left ]
          [ "k"; "c_Ik"; "smin"; "smax"; "g_k"; "r"; "separated equation" ]
      in
      List.iter
        (fun (s : Algo.step) ->
          Table.add_row t
            [
              string_of_int s.Algo.k;
              (match s.Algo.coeff with Some c -> string_of_int c | None -> "-");
              string_of_int s.Algo.smin;
              string_of_int s.Algo.smax;
              (match s.Algo.gk with Some g -> string_of_int g | None -> "inf");
              string_of_int s.Algo.r;
              (match s.Algo.separated with
              | Some p -> Depeq.to_string p
              | None -> if s.Algo.barrier then "(trivial 0 = 0)" else "");
            ])
        r.Algo.steps;
      Buffer.add_string buf (Table.render t);
      para buf "";
      para buf
        (Printf.sprintf "Verdict: %s; direction vectors: %s; distances: %s"
           (Verdict.to_string r.Algo.verdict)
           (String.concat " "
              (List.map Dirvec.to_string r.Algo.dirvecs))
           (String.concat " "
              (List.map
                 (fun (l, d) -> Printf.sprintf "level %d: %+d" l d)
                 r.Algo.distances)));
      para buf
        "Paper Figure 5 separates the same three equations:\n\
         i1 - j2 = 0;  10*j1 - 10*i2 - 10 = 0;  100*k1 - 100*k2 - 100 = 0.")

(* ---------------------------------------------------------------- E5 -- *)

let e5_dep ?(jobs = 1) ?chunk () =
  match Analyze.deps_of_program ~jobs ?chunk (prepare Fragments.mhl_program) with
  | [ d ] -> d
  | deps ->
      failwith
        (Printf.sprintf "E5: expected exactly one dependence, got %d"
           (List.length deps))

let e5_distances () =
  let prog = prepare Fragments.mhl_program in
  let accs, env = Access.of_program prog in
  match accs with
  | [ w; r ] -> (
      match Problem.of_accesses w r with
      | Some p ->
          let res = Analyze.vectors ~env p in
          List.filter_map
            (fun (l, d) ->
              Option.map (fun c -> (l, -c)) (Poly.to_const d))
            res.Analyze.distances
          |> List.sort compare
      | None -> [])
  | _ -> []

let e5 ?jobs ?chunk () =
  buf_report (fun buf ->
      heading buf "E5: exact distance vector for the MHL91 fragment";
      Buffer.add_string buf (Ast.to_string (prepare Fragments.mhl_program));
      Buffer.add_string buf "\n\n";
      para buf
        "Paper claim: [MHL91] cannot discover that the distance vector is\n\
         (2,0); delinearization proves it exactly (the write at iteration\n\
         (i,j) and the read at iteration (i+2,j) touch the same cell).";
      let d = e5_dep ?jobs ?chunk () in
      para buf
        (Printf.sprintf
           "Reported dependence: %s, direction %s, distance-direction %s"
           (dep_pair_label d)
           (Dirvec.to_string d.Analyze.dirvec)
           (Ddvec.to_string d.Analyze.ddvec));
      para buf
        (Printf.sprintf
           "Distances (source = the textually earlier iteration): %s"
           (String.concat ", "
              (List.map
                 (fun (l, v) -> Printf.sprintf "level %d: %d" l v)
                 (e5_distances ())))))

(* ---------------------------------------------------------------- E6 -- *)

let e6_problem () =
  let prog = prepare Fragments.symbolic_program in
  let accs, env = Access.of_program prog in
  match accs with
  | [ w; r ] -> (
      match Problem.of_accesses w r with
      | Some p -> (prog, p, env)
      | None -> failwith "E6: no problem")
  | _ -> failwith "E6: unexpected access count"

let e6 () =
  buf_report (fun buf ->
      heading buf "E6: symbolic delinearization (paper section 4)";
      let prog, p, env = e6_problem () in
      Buffer.add_string buf (Ast.to_string prog);
      Buffer.add_string buf "\n\n";
      para buf
        (Format.asprintf "Derived assumptions from loop bounds: %a" Assume.pp
           env);
      let eq = List.hd p.Problem.equations in
      para buf (Format.asprintf "Dependence equation: %a" Symeq.pp eq);
      let r = Symalgo.run ~env ~n_common:p.Problem.n_common eq in
      let t =
        Table.create
          [ "k"; "c_Ik"; "smin"; "smax"; "g_k"; "r"; "separated equation" ]
      in
      List.iter
        (fun (s : Symalgo.step) ->
          Table.add_row t
            [
              string_of_int s.Symalgo.k;
              (match s.Symalgo.coeff with
              | Some c -> Poly.to_string c
              | None -> "-");
              Poly.to_string s.Symalgo.smin;
              Poly.to_string s.Symalgo.smax;
              (match s.Symalgo.gk with
              | Some g -> Poly.to_string g
              | None -> "inf");
              Poly.to_string s.Symalgo.r;
              (match s.Symalgo.separated with
              | Some piece -> Format.asprintf "%a" Symeq.pp piece
              | None -> if s.Symalgo.barrier then "(trivial 0 = 0)" else "");
            ])
        r.Symalgo.steps;
      Buffer.add_string buf (Table.render t);
      para buf "";
      para buf
        (Printf.sprintf "Verdict: %s; direction vectors: %s"
           (Verdict.to_string r.Symalgo.verdict)
           (String.concat " " (List.map Dirvec.to_string r.Symalgo.dirvecs)));
      para buf
        (Printf.sprintf "Symbolic distances: %s"
           (String.concat ", "
              (List.map
                 (fun (l, d) ->
                   Printf.sprintf "level %d: %s" l (Poly.to_string d))
                 r.Symalgo.distances)));
      (* Literal reshape of the array. *)
      let reshaped, plans =
        Reshape.apply ~env:(Assume.assume_ge "N" 2 Assume.empty) prog
      in
      para buf
        (Printf.sprintf "Recovered shapes: %s"
           (String.concat "; "
              (List.map
                 (fun (pl : Reshape.plan) ->
                   Printf.sprintf "%s(%s)" pl.Reshape.array
                     (String.concat ", "
                        (List.map Poly.to_string pl.Reshape.extents)))
                 plans)));
      Buffer.add_string buf (Ast.to_string reshaped);
      Buffer.add_string buf "\n\n";
      (* Numeric cross-check. *)
      let t2 =
        Table.create [ "N"; "numeric verdict"; "numeric dirvecs"; "agrees" ]
      in
      List.iter
        (fun n ->
          let np = Problem.instantiate (fun _ -> n) p in
          let eqn = List.hd np.Problem.eqs in
          let nr =
            Algo.run ~n_common:np.Problem.n_common
              ~common_ubs:np.Problem.common_ubs eqn
          in
          (* Soundness, not equality: a symbolic "independent" must hold
             for every N; a symbolic "dependent" (= could not disprove)
             may still be independent at particular N (here N = 2, where
             the k loops have a single iteration). *)
          let consistent =
            (not (Verdict.equal r.Symalgo.verdict Verdict.Independent))
            || Verdict.equal nr.Algo.verdict Verdict.Independent
          in
          Table.add_row t2
            [
              string_of_int n;
              Verdict.to_string nr.Algo.verdict;
              String.concat " " (List.map Dirvec.to_string nr.Algo.dirvecs);
              (if consistent then "yes" else "NO");
            ])
        [ 2; 3; 4; 5; 6 ];
      Buffer.add_string buf (Table.render t2))

(* ---------------------------------------------------------------- E7 -- *)

let e7 ?(jobs = 1) ?chunk () =
  buf_report (fun buf ->
      heading buf "E7: induction variables, aliasing, and C pointers";
      (* (a) the IB nest *)
      para buf "(a) BOAST-style induction variable:";
      Buffer.add_string buf (Ast.to_string (F77.parse Fragments.ib_program));
      Buffer.add_string buf "\n\nAfter substitution:\n";
      let prog = prepare Fragments.ib_program in
      Buffer.add_string buf (Ast.to_string prog);
      Buffer.add_string buf "\n\n";
      let deps = Analyze.deps_of_program ~jobs ?chunk prog in
      List.iter
        (fun d -> para buf (Format.asprintf "%a" Analyze.pp_dep d))
        deps;
      let plan_str (r : Codegen.result) =
        String.concat "; "
          (List.map
             (fun (pl : Codegen.plan) ->
               Printf.sprintf "%s seq[%s] vec[%s]" pl.Codegen.stmt_name
                 (String.concat ","
                    (List.map string_of_int pl.Codegen.seq_levels))
                 (String.concat ","
                    (List.map string_of_int pl.Codegen.vec_levels)))
             r.Codegen.plans)
      in
      para buf
        (Printf.sprintf "Vectorizer with delinearization: %s"
           (plan_str (Codegen.run ~cascade:Cascade.delin prog)));
      para buf
        (Printf.sprintf "Vectorizer with classic tests:    %s"
           (plan_str (Codegen.run ~cascade:Cascade.classic prog)));
      (* (b) 2-D EQUIVALENCE *)
      para buf "(b) EQUIVALENCE aliasing (2-D):";
      let prog2 = prepare Fragments.equivalence_2d in
      Buffer.add_string buf (Ast.to_string prog2);
      Buffer.add_string buf "\n\n";
      para buf
        (Printf.sprintf "Dependences after linearization: %d (paper: independent)"
           (List.length (Analyze.deps_of_program ~jobs ?chunk prog2)));
      (* (c) 4-D partial linearization *)
      para buf "(c) EQUIVALENCE aliasing (4-D, partial linearization):";
      let prog4 = prepare Fragments.equivalence_4d in
      Buffer.add_string buf (Ast.to_string prog4);
      Buffer.add_string buf "\n\n";
      let deps4 = Analyze.deps_of_program ~jobs ?chunk prog4 in
      List.iter
        (fun d -> para buf (Format.asprintf "%a" Analyze.pp_dep d))
        deps4;
      para buf
        "The write/read pair is proven independent through the linearized\n\
         leading dimension even though IFUN(10) is opaque — the paper's\n\
         point about partial linearization.  The surviving row is the\n\
         write's self output dependence through the opaque dimension\n\
         (IFUN(10) names the same plane for every L), which linearizing\n\
         the trailing dimensions would NOT have exposed any better.";
      (* (d) dummy/actual association *)
      para buf "(d) dummy/actual argument association:";
      let assoc_src =
        "      REAL A(0:9,0:9)\n\
        \      CALL COPY(A)\n\
        \      END\n\
        \      SUBROUTINE COPY(B)\n\
        \      REAL B(0:4,0:19)\n\
        \      DO 1 I = 0, 4\n\
        \      DO 1 J = 0, 9\n\
         1     B(I,2*J+1) = B(I,2*J)\n\
        \      END\n"
      in
      Buffer.add_string buf assoc_src;
      let inlined =
        Dlz_passes.Inline.expand (F77.parse_units assoc_src)
      in
      let proga = Pipeline.prepare_program inlined in
      Buffer.add_string buf "\nAfter inlining + association + pipeline:\n";
      Buffer.add_string buf (Ast.to_string proga);
      Buffer.add_string buf "\n\n";
      para buf
        (Printf.sprintf
           "Dependences: %d — the dummy B(0:4,0:19) associates with the\n\
            actual A(0:9,0:9); per the standard both linearize, and\n\
            delinearization proves the odd/even column accesses disjoint."
           (List.length (Analyze.deps_of_program ~jobs ?chunk proga)));
      (* (e) C pointers *)
      para buf "(e) C pointer traversal:";
      Buffer.add_string buf Fragments.c_pointers;
      Buffer.add_string buf "\nLowered and normalized:\n";
      let progc =
        Pipeline.prepare_program
          (Pointers.lower (C_parser.parse Fragments.c_pointers))
      in
      Buffer.add_string buf (Ast.to_string progc);
      Buffer.add_string buf "\n\n";
      para buf
        (Printf.sprintf "Dependences: %d (paper: independent)"
           (List.length (Analyze.deps_of_program ~jobs ?chunk progc))))

(* ---------------------------------------------------------------- E8 -- *)

let e8 () =
  buf_report (fun buf ->
      heading buf "E8: cost of delinearization vs baselines";
      para buf
        "Paper claims: the algorithm runs in (near-)linear time in the\n\
         number of variables; its inline test equals GCD+Banerjee per\n\
         dimension; Fourier-Motzkin is much more expensive.  The timings\n\
         come from `bench/main.exe e8` (BENCH_e8.json, which gates their\n\
         ratios); this report keeps the deterministic part: the growth of\n\
         the FM system and the precision of each test.  Workload: the\n\
         linearized family with extent 10, shifted (integer-infeasible,\n\
         real-feasible).";
      let t =
        Table.create
          ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
          [ "depth"; "vars"; "FM-tight rows"; "FM-real rows" ]
      in
      List.iter
        (fun depth ->
          let eq = Workload.paper_family ~depth ~extent:10 ~shifted:true in
          let nvars, rows = Fm.system_of_equation eq in
          Table.add_row t
            [
              string_of_int depth;
              string_of_int (Depeq.nvars eq);
              string_of_int (Fm.eliminations Fm.Tightened ~nvars rows);
              string_of_int (Fm.eliminations Fm.Real ~nvars rows);
            ])
        [ 1; 2; 3; 4; 5; 6 ];
      Buffer.add_string buf (Table.render t);
      para buf "";
      (* Precision summary on the random linearized family. *)
      let g = Prng.create 42L in
      let n = 300 in
      let delin_ok = ref 0 and ban_ok = ref 0 and fmt_ok = ref 0 in
      let indep_total = ref 0 in
      for _ = 1 to n do
        let eq = Workload.random_linearized g ~depth:3 in
        let exact = Exact.test [ eq ] in
        if exact = Verdict.Independent then begin
          incr indep_total;
          if Algo.test eq = Verdict.Independent then incr delin_ok;
          if Banerjee.test eq = Verdict.Independent then incr ban_ok;
          if Fm.test Fm.Tightened eq = Verdict.Independent then incr fmt_ok
        end
      done;
      para buf
        (Printf.sprintf
           "Of %d random depth-3 linearized equations, %d are independent\n\
            (exact solver).  Proven independent by: delinearization %d,\n\
            Banerjee %d, tightened FM %d."
           n !indep_total !delin_ok !ban_ok !fmt_ok))

let all ?jobs ?chunk () =
  [
    ("e1", e1 ()); ("e2", e2 ()); ("e3", e3 ?jobs ?chunk ()); ("e4", e4 ());
    ("e5", e5 ?jobs ?chunk ()); ("e6", e6 ()); ("e7", e7 ?jobs ?chunk ()); ("e8", e8 ());
  ]

let run ?jobs ?chunk id =
  match String.lowercase_ascii id with
  | "e1" -> Some (e1 ())
  | "e2" -> Some (e2 ())
  | "e3" -> Some (e3 ?jobs ?chunk ())
  | "e4" -> Some (e4 ())
  | "e5" -> Some (e5 ?jobs ?chunk ())
  | "e6" -> Some (e6 ())
  | "e7" -> Some (e7 ?jobs ?chunk ())
  | "e8" -> Some (e8 ())
  | _ -> None
