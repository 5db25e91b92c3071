module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr
module Access = Dlz_ir.Access
module Affine = Dlz_ir.Affine
module Poly = Dlz_symbolic.Poly
module Prng = Dlz_base.Prng

type spec = {
  name : string;
  domain : string;
  target_lines : int;
  reported : string;
  planted : int;
}

let riceps =
  [
    { name = "BOAST"; domain = "Reservoir Simulation"; target_lines = 7000;
      reported = ">28"; planted = 30 };
    { name = "CCM"; domain = "Atmospheric"; target_lines = 24000;
      reported = ">24"; planted = 26 };
    { name = "LINPACKD"; domain = "Linear Algebra"; target_lines = 400;
      reported = "0"; planted = 0 };
    { name = "QCD"; domain = "Quantum Chromodynamics"; target_lines = 2000;
      reported = "2"; planted = 2 };
    { name = "SIMPLE"; domain = "Fluid Flow"; target_lines = 1000;
      reported = "0"; planted = 0 };
    { name = "SPHOT"; domain = "Particle Transport"; target_lines = 1000;
      reported = "2"; planted = 2 };
    { name = "TRACK"; domain = "Trajectory Plot"; target_lines = 4000;
      reported = "5"; planted = 5 };
    { name = "WANAL1"; domain = "Wave Equation"; target_lines = 2000;
      reported = "4"; planted = 4 };
  ]

(* --- program generation ------------------------------------------------ *)

let v = Expr.var
let c = Expr.const

(* A plain (never linearized) computational nest. *)
let plain_nest g idx =
  let a = Printf.sprintf "P%dA" idx
  and b = Printf.sprintf "P%dB" idx
  and w = Printf.sprintf "P%dW" idx in
  let n1 = Prng.int_in g 8 40 and n2 = Prng.int_in g 8 40 in
  let decls =
    [
      Ast.Array { a_name = a; a_kind = Ast.Real;
                  a_dims = [ { lo = c 0; hi = c (n1 - 1) };
                             { lo = c 0; hi = c (n2 - 1) } ] };
      Ast.Array { a_name = b; a_kind = Ast.Real;
                  a_dims = [ { lo = c 0; hi = c (n1 - 1) };
                             { lo = c 0; hi = c (n2 - 1) } ] };
      Ast.Array { a_name = w; a_kind = Ast.Real;
                  a_dims = [ { lo = c 0; hi = c (n1 - 1) } ] };
    ]
  in
  let h1 = c (n1 - 1) and h2 = c (n2 - 1) in
  let open Expr in
  let body =
    [
      Ast.do_ "I" (c 0) h1
        [
          Ast.do_ "J" (c 0) h2
            [
              Ast.assign (Ast.ref_ a [ v "I"; v "J" ])
                (Call (b, [ v "I"; v "J" ]) + Call (w, [ v "I" ]));
              Ast.assign (Ast.ref_ b [ v "I"; v "J" ])
                (Call (a, [ v "I"; v "J" ]) * c 2);
            ];
          Ast.assign (Ast.ref_ w [ v "I" ]) (Call (w, [ v "I" ]) + c 1);
        ];
    ]
  in
  (decls, body)

(* Idiom 1: hand-linearized subscript with constant stride. *)
let explicit_linear_nest g idx =
  let w = Printf.sprintf "L%dW" idx in
  let n1 = Prng.int_in g 4 9 and n2 = Prng.int_in g 5 12 in
  let stride = n1 + 1 + Prng.int_in g 0 3 in
  let shift = Prng.int_in g 1 n1 in
  let total = (stride * (n2 + 1)) + n1 + shift in
  let decls =
    [ Ast.Array { a_name = w; a_kind = Ast.Real;
                  a_dims = [ { lo = c 0; hi = c total } ] } ]
  in
  let open Expr in
  let sub = v "I" + (c stride * v "J") in
  let body =
    [
      Ast.do_ "I" (c 0) (c n1)
        [
          Ast.do_ "J" (c 0) (c n2)
            [ Ast.assign (Ast.ref_ w [ sub ]) (Call (w, [ sub + c shift ]) + c 1) ];
        ];
    ]
  in
  (decls, body)

(* Idiom 2: run-time dimensioning — symbolic stride scalars. *)
let runtime_dim_nest g idx =
  let w = Printf.sprintf "R%dW" idx in
  let nd = Printf.sprintf "ND%d" idx in
  let n1 = Prng.int_in g 4 16 in
  let decls =
    [
      Ast.Array { a_name = w; a_kind = Ast.Real;
                  a_dims = [ { lo = c 0; hi = c 9999 } ] };
      Ast.Scalar (Ast.Integer, nd);
    ]
  in
  let open Expr in
  let sub = v "I" + (v nd * v "J") in
  let body =
    [
      Ast.do_ "I" (c 0) (v nd - c 1)
        [
          Ast.do_ "J" (c 0) (c n1)
            [ Ast.assign (Ast.ref_ w [ sub ]) (Call (w, [ sub ]) * c 3) ];
        ];
    ]
  in
  (decls, body)

(* Idiom 3: a multi-loop induction variable (linearized only after the
   induction pass substitutes the closed form). *)
let induction_nest g idx =
  let w = Printf.sprintf "V%dW" idx in
  let ib = Printf.sprintf "IV%d" idx in
  let n1 = Prng.int_in g 3 9 and n2 = Prng.int_in g 3 9 in
  let total = (n1 + 1) * (n2 + 1) in
  let decls =
    [
      Ast.Array { a_name = w; a_kind = Ast.Real;
                  a_dims = [ { lo = c 0; hi = c (total - 1) } ] };
      Ast.Scalar (Ast.Integer, ib);
    ]
  in
  let open Expr in
  let body =
    [
      Ast.assign (Ast.scalar_ref ib) (c (-1));
      Ast.do_ "I" (c 0) (c n1)
        [
          Ast.do_ "J" (c 0) (c n2)
            [
              Ast.assign (Ast.scalar_ref ib) (v ib + c 1);
              Ast.assign (Ast.ref_ w [ v ib ]) (Call (w, [ v ib ]) + c 7);
            ];
        ];
    ]
  in
  (decls, body)

(* Idiom 4: EQUIVALENCE aliasing of different shapes; linearized by the
   aliasing pass. *)
let equivalence_nest g idx =
  let a = Printf.sprintf "E%dA" idx and b = Printf.sprintf "E%dB" idx in
  let n = 2 * Prng.int_in g 2 5 in
  (* A is n x n, B is (n/2) x 2n: same total, different shape. *)
  let decls =
    [
      Ast.Array { a_name = a; a_kind = Ast.Real;
                  a_dims = [ { lo = c 0; hi = c (n - 1) };
                             { lo = c 0; hi = c (n - 1) } ] };
      Ast.Array { a_name = b; a_kind = Ast.Real;
                  a_dims = [ { lo = c 0; hi = c ((n / 2) - 1) };
                             { lo = c 0; hi = c ((2 * n) - 1) } ] };
      Ast.Equivalence [ [ (a, []); (b, []) ] ];
    ]
  in
  let h1 = c ((n / 2) - 1) and h2 = c (n - 1) in
  let open Expr in
  let body =
    [
      Ast.do_ "I" (c 0) h1
        [
          Ast.do_ "J" (c 0) h2
            [
              Ast.assign (Ast.ref_ a [ v "I"; v "J" ])
                (Call (b, [ v "I"; (c 2 * v "J") + c 1 ]));
            ];
        ];
    ]
  in
  (decls, body)

let generate spec =
  let g = Prng.create (Int64.of_int (Hashtbl.hash spec.name)) in
  let decls = ref [] and body = ref [] in
  let nest_idx = ref 0 in
  let lines = ref 2 (* PROGRAM + END *) in
  let add (ds, bs) =
    decls := List.rev_append ds !decls;
    body := List.rev_append bs !body;
    (* Count the chunk's rendered lines once, incrementally. *)
    let chunk = { Ast.p_name = spec.name; decls = ds; body = bs } in
    lines := !lines + Ast.count_lines chunk - 2
  in
  (* Plant the linearized nests, cycling over the four idioms. *)
  for k = 0 to spec.planted - 1 do
    incr nest_idx;
    let mk =
      match k mod 4 with
      | 0 -> explicit_linear_nest
      | 1 -> runtime_dim_nest
      | 2 -> induction_nest
      | _ -> equivalence_nest
    in
    add (mk g !nest_idx)
  done;
  (* Pad with plain nests up to the target size. *)
  while !lines < spec.target_lines do
    incr nest_idx;
    add (plain_nest g !nest_idx)
  done;
  { Ast.p_name = spec.name; decls = List.rev !decls; body = List.rev !body }

(* --- detection ---------------------------------------------------------- *)

(* Distinct "magnitude keys" among the loop-variable coefficients of an
   affine subscript: a nonneg-normalized polynomial per coefficient. *)
let coeff_keys f =
  List.map
    (fun (_, p) -> if Poly.leading_sign p < 0 then Poly.neg p else p)
    (Affine.terms f)
  |> List.sort_uniq Poly.compare

let is_linearized_access (a : Access.t) =
  List.exists
    (function
      | Access.Aff f ->
          List.length (Affine.loop_vars f) >= 2
          && List.length (coeff_keys f) >= 2
      | Access.Opaque -> false)
    a.Access.subs

(* Outermost loop nests containing at least one linearized reference,
   measured after the normalization/induction/aliasing pipeline.  One
   extraction per outermost loop nest, so nests are counted by position
   rather than by accidental structural equality. *)
let count_linearized_nests prog =
  let prog = Dlz_passes.Pipeline.prepare_program prog in
  List.fold_left
    (fun acc stmt ->
      match stmt with
      | Ast.Do _ ->
          let sub = { prog with Ast.body = [ stmt ] } in
          let accs, _ = Access.of_program sub in
          if List.exists is_linearized_access accs then acc + 1 else acc
      | _ -> acc)
    0 prog.Ast.body

type row = { r_spec : spec; r_lines : int; r_counted : int }

type ablation_row = {
  a_name : string;
  a_nests : int;
  a_parallel_delin : int;
  a_parallel_classic : int;
}

let linearized_nests prog =
  let prog = Dlz_passes.Pipeline.prepare_program prog in
  List.filter_map
    (fun stmt ->
      match stmt with
      | Ast.Do _ ->
          let sub = { prog with Ast.body = [ stmt ] } in
          let accs, _ = Access.of_program sub in
          if List.exists is_linearized_access accs then Some sub else None
      | _ -> None)
    prog.Ast.body

let parallel_ablation () =
  List.filter_map
    (fun spec ->
      if spec.planted = 0 then None
      else begin
        let nests = linearized_nests (generate spec) in
        let count cascade =
          List.length
            (List.filter
               (fun nest ->
                 Dlz_vec.Parallel.fully_parallel
                   (Dlz_vec.Parallel.report ~cascade nest))
               nests)
        in
        Some
          {
            a_name = spec.name;
            a_nests = List.length nests;
            a_parallel_delin = count Dlz_engine.Cascade.delin;
            a_parallel_classic = count Dlz_engine.Cascade.classic;
          }
      end)
    riceps

let figure1 () =
  List.map
    (fun spec ->
      let prog = generate spec in
      {
        r_spec = spec;
        r_lines = Ast.count_lines prog;
        r_counted = count_linearized_nests prog;
      })
    riceps
