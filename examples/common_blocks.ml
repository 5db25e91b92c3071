(* COMMON-block sequence association (paper section 1, "Array aliasing").

   COMMON lays its members out consecutively, so member references are
   really offsets into one storage sequence — and "correctly working
   programs which may be not standard conforming" rely on it.  The
   pipeline's storage step makes the layout explicit (one linearized
   block array), the analyzer then sees cross-member collisions it would
   otherwise miss, and delinearization keeps the precision for the
   well-behaved references.  An EQUIVALENCE onto a block member joins
   the same storage area, even where it runs past the member's end.

   Run with: dune exec examples/common_blocks.exe *)

module Ast = Dlz_ir.Ast
module Analyze = Dlz_engine.Analyze
module Parallel = Dlz_vec.Parallel
module Storage = Dlz_passes.Storage

let show src =
  let before = Dlz_frontend.F77_parser.parse src in
  Format.printf "Source:@.%s@.@." (Ast.to_string before);
  let after, areas = Dlz_passes.Pipeline.prepare before in
  List.iter
    (fun (a : Storage.area) ->
      Format.printf "Area {%s} -> %s, member bases: %s@."
        (String.concat ", " a.Storage.members)
        a.Storage.repl
        (String.concat ", "
           (List.map2
              (fun m off ->
                Printf.sprintf "%s@%s" m (Dlz_symbolic.Poly.to_string off))
              a.Storage.members a.Storage.bases)))
    areas;
  Format.printf "After sequence association:@.%s@.@." (Ast.to_string after);
  let deps = Analyze.deps_of_program after in
  if deps = [] then Format.printf "No dependences.@."
  else
    List.iter (fun d -> Format.printf "  %a@." Analyze.pp_dep d) deps;
  List.iter
    (fun (l : Parallel.loop_report) ->
      Format.printf "  loop %s: %s@." l.Parallel.lr_var
        (if l.Parallel.lr_parallel then "parallel" else "serial"))
    (Parallel.report after);
  Format.printf "@."

let () =
  (* Well-behaved: members do not collide; delinearization keeps the
     nest parallel even through the block's linearized view. *)
  show
    {|
      REAL A(0:9,0:9), B(0:9)
      COMMON /STATE/ A, B
      DO 1 I = 0, 9
      DO 1 J = 0, 9
1     A(I,J) = A(I,J) + B(J)
      END
|};
  (* Not standard conforming but "correctly working": the write runs off
     the end of A into B.  Only the sequence-associated view sees the
     collision with the B reads. *)
  show
    {|
      REAL A(0:9), B(0:9)
      COMMON /BUF/ A, B
      DO 1 I = 0, 9
1     A(I+10) = B(I) + 1
      END
|};
  (* C overlays A and runs on into B: C(I+11) is B(I+1), so each
     iteration reads what the next one writes. *)
  show
    {|
      REAL A(0:9), B(0:9), C(0:19)
      COMMON /X/ A, B
      EQUIVALENCE (C, A)
      DO 1 I = 0, 8
1     B(I) = C(I+11)
      END
|}
