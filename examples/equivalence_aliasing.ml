(* EQUIVALENCE aliasing (paper section 1, "Array aliasing").

   Arrays of different shape associated by EQUIVALENCE must be compared
   through their linearized form; delinearization then recovers the
   precision linearization destroyed.  The 4-D variant shows the paper's
   partial-linearization policy: only the differing leading dimensions
   fold, so the opaque IFUN(10) subscript never "spoils the whole index".

   Run with: dune exec examples/equivalence_aliasing.exe *)

module Fragments = Dlz_driver.Fragments
module Analyze = Dlz_engine.Analyze
module Ast = Dlz_ir.Ast

let show title src =
  Format.printf "=== %s ===@.Source:@.%s@." title src;
  let prog = Dlz_frontend.F77_parser.parse src in
  let prog', areas = Dlz_passes.Pipeline.prepare prog in
  List.iter
    (fun (a : Dlz_passes.Storage.area) ->
      Format.printf "Linearized {%s} into %s, keeping %d trailing dim(s)@."
        (String.concat ", " a.Dlz_passes.Storage.members)
        a.Dlz_passes.Storage.repl a.Dlz_passes.Storage.kept_dims)
    areas;
  Format.printf "After the pipeline:@.%s@.@." (Ast.to_string prog');
  let deps = Analyze.deps_of_program prog' in
  if deps = [] then Format.printf "Result: independent — fully parallel.@.@."
  else begin
    Format.printf "Dependences:@.";
    List.iter (fun d -> Format.printf "  %a@." Analyze.pp_dep d) deps;
    Format.printf "@."
  end

let () =
  show "2-D aliasing: A(0:9,0:9) = B(0:4,0:19)" Fragments.equivalence_2d;
  show "4-D aliasing with an opaque subscript" Fragments.equivalence_4d
