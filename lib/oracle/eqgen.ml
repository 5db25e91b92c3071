module Prng = Dlz_base.Prng
module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Depeq = Dlz_deptest.Depeq
module Symeq = Dlz_deptest.Symeq
module Problem = Dlz_deptest.Problem

type case = {
  id : string;
  family : string;
  problem : Problem.t;  (** What the strategies see. *)
  ground : Problem.numeric;  (** What the oracle decides. *)
  env : Assume.t;
}

let mk_case ~family ~idx ?(env = Assume.empty) ?problem ground =
  let problem =
    match problem with Some p -> p | None -> Problem.synthetic ground
  in
  { id = Printf.sprintf "%s:%d" family idx; family; problem; ground; env }

(* A symbolic problem over placeholder accesses, for families whose
   coefficients are genuinely polynomial (Problem.synthetic only lifts
   numerics). *)
let mk_symbolic_problem ~n_common ~common_ubs equations =
  let loops =
    List.mapi
      (fun i ub -> { Access.l_var = Printf.sprintf "z%d" (i + 1); l_ub = ub })
      common_ubs
  in
  let access acc_id stmt_name rw =
    { Access.acc_id; stmt_id = acc_id; stmt_name; array = "synthetic";
      rw; loops; subs = [] }
  in
  {
    Problem.src = access 0 "Ssrc" `Write;
    dst = access 1 "Sdst" `Read;
    n_common;
    common_ubs;
    equations;
    opaque_dims = 0;
  }

(* --- random numeric systems --------------------------------------------- *)

let random_ground g =
  let n_common = Prng.int_in g 1 3 in
  let common_ubs = Array.init n_common (fun _ -> Prng.int_in g 0 6) in
  let var side level =
    Depeq.var ~side ~level
      (Printf.sprintf "%c%d" (match side with `Src -> 'i' | `Dst -> 'j') level)
      common_ubs.(level - 1)
  in
  let neqs = Prng.int_in g 1 2 in
  let eqs =
    List.init neqs (fun _ ->
        let terms =
          List.concat
            (List.init n_common (fun l ->
                 let lvl = l + 1 in
                 let term side =
                   let c = Prng.int_in g (-8) 8 in
                   if c = 0 then [] else [ (c, var side lvl) ]
                 in
                 term `Src @ term `Dst))
        in
        Depeq.make (Prng.int_in g (-40) 40) terms)
  in
  Problem.numeric_of_equations ~n_common ~common_ubs eqs

let random ~seed ~count =
  let g = Prng.create seed in
  List.init count (fun idx -> mk_case ~family:"random" ~idx (random_ground g))

(* --- linearized references ---------------------------------------------- *)

(* A(i + N*j) against A(i' + N*j') [+ c]: the paper's target shape.  The
   row extent is sometimes smaller than the stride N (no aliasing across
   rows — delinearization separates the dimensions) and sometimes
   crosses it (true wraparound coupling, the case naive per-dimension
   reasoning gets wrong). *)
let linearized_ground g =
  let n = Prng.int_in g 2 7 in
  let iub = if Prng.bool g then n - 1 else Prng.int_in g 1 (n + 2) in
  let jub = Prng.int_in g 0 4 in
  let three = Prng.int g 4 = 0 in
  let m = Prng.int_in g 2 4 in
  let n_common = if three then 3 else 2 in
  let kub = Prng.int_in g 0 2 in
  let common_ubs =
    if three then [| iub; jub; kub |] else [| iub; jub |]
  in
  let var side level ub =
    Depeq.var ~side ~level
      (Printf.sprintf "%c%d" (match side with `Src -> 'i' | `Dst -> 'j') level)
      ub
  in
  let c0 =
    let k = Prng.int_in g (-3) 3 in
    if Prng.bool g then k else k * n
  in
  let base =
    [ (1, var `Src 1 iub); (n, var `Src 2 jub);
      (-1, var `Dst 1 iub); (-n, var `Dst 2 jub) ]
  in
  let terms =
    if three then
      base @ [ (n * m, var `Src 3 kub); (-n * m, var `Dst 3 kub) ]
    else base
  in
  Problem.numeric_of_equations ~n_common ~common_ubs
    [ Depeq.make c0 terms ]

let linearized ~seed ~count =
  let g = Prng.create seed in
  List.init count (fun idx ->
      mk_case ~family:"linearized" ~idx (linearized_ground g))

(* --- symbolic coefficients ---------------------------------------------- *)

(* Coefficients and bounds over a symbol N with only a lower bound
   assumed; the ground truth instantiates N at a concrete value the
   assumptions admit, so an Independent claim must survive it. *)
let symbolic_case g idx =
  let lb = Prng.int_in g 1 4 in
  let env = Assume.assume_ge "N" lb Assume.empty in
  let n = Poly.sym "N" in
  let iub = Poly.sub n (Poly.const 1) in
  let jubc = Prng.int_in g 0 3 in
  let jub = Poly.const jubc in
  let svar side level name ub = Symeq.var ~side ~level name ub in
  let c0 =
    let k = Prng.int_in g (-3) 3 in
    if Prng.bool g then Poly.const k else Poly.scale k n
  in
  let eq =
    Symeq.make c0
      [ (Poly.one, svar `Src 1 "i1" iub);
        (n, svar `Src 2 "j1" jub);
        (Poly.const (-1), svar `Dst 1 "i2" iub);
        (Poly.neg n, svar `Dst 2 "j2" jub) ]
  in
  let problem =
    mk_symbolic_problem ~n_common:2 ~common_ubs:[ iub; jub ] [ eq ]
  in
  let nval = lb + Prng.int g 4 in
  let ground = Problem.instantiate (fun _ -> nval) problem in
  { id = Printf.sprintf "symbolic:%d" idx; family = "symbolic"; problem;
    ground; env }

let symbolic ~seed ~count =
  let g = Prng.create seed in
  List.init count (fun idx -> symbolic_case g idx)

(* --- near-overflow magnitudes ------------------------------------------- *)

(* Coefficients within a few bits of the native-int edge over tiny
   boxes: the family that punishes any remaining raw arithmetic.  Some
   systems are balanced (equal huge coefficients on both sides, so a
   solution exists at equal indices) and some are not. *)
let near_overflow_ground g =
  let huge =
    [| max_int / 2; (max_int / 2) - 1; max_int / 3; 1 lsl 58; 1 lsl 60;
       max_int - 2 |]
  in
  let pick () =
    let h = Prng.choose g huge in
    if Prng.bool g then h else -h
  in
  let n_common = Prng.int_in g 1 2 in
  let common_ubs = Array.init n_common (fun _ -> Prng.int_in g 0 2) in
  let var side level =
    Depeq.var ~side ~level
      (Printf.sprintf "%c%d" (match side with `Src -> 'i' | `Dst -> 'j') level)
      common_ubs.(level - 1)
  in
  let balanced = Prng.bool g in
  let terms =
    List.concat
      (List.init n_common (fun l ->
           let lvl = l + 1 in
           let c = pick () in
           let c' = if balanced then -c else pick () in
           [ (c, var `Src lvl); (c', var `Dst lvl) ]))
  in
  let c0 =
    match Prng.int g 3 with
    | 0 -> 0
    | 1 -> Prng.int_in g (-2) 2
    | _ -> pick ()
  in
  Problem.numeric_of_equations ~n_common ~common_ubs
    [ Depeq.make c0 terms ]

(* Coefficients within a few bits of [max_int] over tiny boxes:
   punishes raw arithmetic in any strategy. *)
let near_overflow ~seed ~count =
  let g = Prng.create seed in
  List.init count (fun idx ->
      mk_case ~family:"overflow" ~idx (near_overflow_ground g))

(* --- whole random programs through the real pipeline --------------------- *)

let cases_of_program ~family ~env ~start prog =
  let accs, env = Access.of_program ~env prog in
  let idx = ref (start - 1) in
  List.of_seq @@ Seq.filter_map
    (fun (pr : Dlz_engine.Engine.pair) ->
      let p = pr.Dlz_engine.Engine.problem in
      match Problem.to_numeric p with
      | Some np ->
          incr idx;
          Some { id = Printf.sprintf "%s:%d" family !idx; family;
                 problem = p; ground = np; env }
      | None -> (
          (* Symbolic pair: ground it at the assumption lower bounds. *)
          let syms =
            List.sort_uniq String.compare
              (List.concat_map Symeq.symbols p.Problem.equations
              @ List.concat_map Poly.vars p.Problem.common_ubs)
          in
          if syms = [] then None
          else
            let vals = Assume.sample env ~extra:2 syms in
            let lookup s =
              match List.assoc_opt s vals with Some v -> v | None -> 2
            in
            match Problem.instantiate lookup p with
            | np ->
                incr idx;
                Some { id = Printf.sprintf "%s:%d" family !idx; family;
                       problem = p; ground = np; env }
            | exception Invalid_argument _ -> None))
    (Dlz_engine.Engine.pairs_seq accs)

let progen ~seed ~count =
  let g = Prng.create seed in
  let rec gather acc idx =
    if idx >= count then List.rev acc
    else
      let prog =
        Dlz_passes.Pipeline.prepare_program
          (Dlz_driver.Progen.random_profiled Dlz_driver.Progen.linearized_profile
             g)
      in
      let cases =
        cases_of_program ~family:"progen" ~env:Assume.empty ~start:idx prog
      in
      let taken = List.filteri (fun i _ -> idx + i < count) cases in
      gather (List.rev_append taken acc) (idx + List.length taken)
  in
  gather [] 0

(* --- the synthetic corpus ------------------------------------------------ *)

let corpus () =
  List.concat_map
    (fun spec ->
      let prog =
        Dlz_passes.Pipeline.prepare_program (Dlz_corpus.Corpus.generate spec)
      in
      let family =
        "corpus-" ^ String.lowercase_ascii spec.Dlz_corpus.Corpus.name
      in
      cases_of_program ~family ~env:Assume.empty ~start:0 prog)
    Dlz_corpus.Corpus.riceps

let polybench () =
  List.concat_map
    (fun (k : Dlz_corpus.Polybench.kernel) ->
      let prog =
        Dlz_passes.Pipeline.load `C k.Dlz_corpus.Polybench.k_source
      in
      let family = "polybench-" ^ k.Dlz_corpus.Polybench.k_name in
      cases_of_program ~family ~env:Assume.empty ~start:0 prog)
    Dlz_corpus.Polybench.kernels

(* --- the default mixed batch --------------------------------------------- *)

let all ~seed ~count =
  let g = Prng.create seed in
  let sub () = Prng.next64 g in
  let s_random = sub () and s_lin = sub () and s_sym = sub ()
  and s_ovf = sub () and s_prog = sub () in
  let share ppm = count * ppm / 100 in
  let n_random = share 40 in
  let n_lin = share 25 in
  let n_sym = share 15 in
  let n_ovf = share 10 in
  let n_prog = count - n_random - n_lin - n_sym - n_ovf in
  random ~seed:s_random ~count:n_random
  @ linearized ~seed:s_lin ~count:n_lin
  @ symbolic ~seed:s_sym ~count:n_sym
  @ near_overflow ~seed:s_ovf ~count:n_ovf
  @ progen ~seed:s_prog ~count:n_prog
