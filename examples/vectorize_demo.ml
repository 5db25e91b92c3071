(* End-to-end vectorization of the paper's Figure-3 program.

   Parses the Allen-Kennedy example, reports the dependence table the
   paper's Figure 3 lists, and emits the distributed/vectorized
   FORTRAN-90-style code.

   Run with: dune exec examples/vectorize_demo.exe *)

module Fragments = Dlz_driver.Fragments
module Analyze = Dlz_engine.Analyze
module Dirvec = Dlz_deptest.Dirvec
module Ddvec = Dlz_deptest.Ddvec
module Access = Dlz_ir.Access
module Codegen = Dlz_vec.Codegen
module Ast = Dlz_ir.Ast

let () =
  let prog = Dlz_passes.Pipeline.load `F77 Fragments.fig3_program in
  Format.printf "Program:@.%s@.@." (Ast.to_string prog);
  Format.printf "Dependences (paper Figure 3):@.";
  List.iter
    (fun (d : Analyze.dep) ->
      Format.printf "  %s:%s -> %s:%s  %s  %s  %s@."
        d.Analyze.src.Access.stmt_name d.Analyze.src.Access.array
        d.Analyze.dst.Access.stmt_name d.Analyze.dst.Access.array
        (Dirvec.to_string d.Analyze.dirvec)
        (Ddvec.to_string d.Analyze.ddvec)
        (Dlz_deptest.Classify.to_string d.Analyze.kind))
    (Analyze.deps_of_program prog);
  let r = Codegen.run prog in
  Format.printf "@.Dependence graph:@.%a@." Dlz_vec.Depgraph.pp r.Codegen.graph;
  Format.printf "Vectorized:@.%s@." r.Codegen.text
