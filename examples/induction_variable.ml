(* Multi-loop induction variables (paper section 1, the BOAST fragment).

   IB is controlled by all three loops; once it is replaced by its
   closed form K + J*KK + I*JJ*KK, the B references delinearize and the
   statement parallelizes in all three loops — which the vectorizer
   demonstrates, against the classic-tests baseline.

   Run with: dune exec examples/induction_variable.exe *)

module Fragments = Dlz_driver.Fragments
module Analyze = Dlz_engine.Analyze
module Cascade = Dlz_engine.Cascade
module Codegen = Dlz_vec.Codegen
module Ast = Dlz_ir.Ast

let () =
  let before = Dlz_frontend.F77_parser.parse Fragments.ib_program in
  Format.printf "Before:@.%s@.@." (Ast.to_string before);
  Format.printf "Recognized induction variables: %s@.@."
    (String.concat ", " (Dlz_passes.Induction.candidates
                           (Dlz_passes.Normalize.all before)));
  let prog = Dlz_passes.Pipeline.prepare_program before in
  Format.printf "After substitution:@.%s@.@." (Ast.to_string prog);
  Format.printf "Dependences:@.";
  List.iter
    (fun d -> Format.printf "  %a@." Analyze.pp_dep d)
    (Analyze.deps_of_program prog);
  let report cascade label =
    let r = Codegen.run ~cascade prog in
    Format.printf "@.Vectorizer (%s):@.%s" label r.Codegen.text;
    List.iter
      (fun (pl : Codegen.plan) ->
        Format.printf "  %s: sequential %s, vector %s@." pl.Codegen.stmt_name
          (String.concat "," (List.map string_of_int pl.Codegen.seq_levels))
          (String.concat "," (List.map string_of_int pl.Codegen.vec_levels)))
      r.Codegen.plans
  in
  report Cascade.delin "with delinearization";
  report Cascade.classic "classic tests only"
