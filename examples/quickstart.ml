(* Quickstart: the paper's abstract in thirty lines of API.

   Are C(i1 + 10*j1) and C(i2 + 10*j2 + 5) independent for
   0 <= i <= 4, 0 <= j <= 9?  Build dependence equation (1), ask the
   classic tests, then delinearize.

   Run with: dune exec examples/quickstart.exe *)

module Depeq = Dlz_deptest.Depeq
module Verdict = Dlz_deptest.Verdict
module Algo = Dlz_core.Algo

let () =
  (* i1 + 10*j1 - i2 - 10*j2 - 5 = 0, i in [0,4], j in [0,9]. *)
  let eq =
    Depeq.make (-5)
      [
        (1, Depeq.var ~side:`Src ~level:1 "i1" 4);
        (10, Depeq.var ~side:`Src ~level:2 "j1" 9);
        (-1, Depeq.var ~side:`Dst ~level:1 "i2" 4);
        (-10, Depeq.var ~side:`Dst ~level:2 "j2" 9);
      ]
  in
  Format.printf "Equation: %a@.@." Depeq.pp eq;

  Format.printf "GCD test:       %a@." Verdict.pp (Dlz_deptest.Gcd_test.test eq);
  Format.printf "Banerjee:       %a@." Verdict.pp (Dlz_deptest.Banerjee.test eq);
  Format.printf "real FM:        %a@." Verdict.pp
    (Dlz_deptest.Fm.test Dlz_deptest.Fm.Real eq);
  Format.printf "delinearization: %a@.@." Verdict.pp (Algo.test eq);

  (* The full run also yields the Figure-5 trace: the scan's steps,
     with each separated equation at the barrier that singles it out. *)
  let r = Algo.run ~n_common:2 ~common_ubs:[| 4; 9 |] eq in
  Format.printf "Scan trace:@.%a@." Dlz_base.Table.pp
    (Algo.step_table r.Algo.steps);
  Format.printf "Verdict: %a (the loop nest is fully parallel)@."
    Verdict.pp r.Algo.verdict
