open Dlz_base

(* The gcd of the effective coefficients, folded over the terms: a
   level whose direction is '=' contributes its merged [a + b] once, at
   its pair; under any other direction each instance contributes its
   own coefficient where it stands (the source's at the pair, the
   sink's at its [sink] step; an absent source's 0 changes nothing). *)
let effective_gcd dirs (eq : Depeq.t) =
  Depeq.fold_levels eq 0
    ~free:(fun g c _ -> Numth.gcd g c)
    ~pair:(fun g level a _ b _ ->
      Numth.gcd g (if dirs level = Dirvec.Eq then Intx.add a b else a))
    ~sink:(fun g level b -> if dirs level = Dirvec.Eq then g else Numth.gcd g b)

let test ?(dirs = fun _ -> Dirvec.Star) (eq : Depeq.t) =
  let g = effective_gcd dirs eq in
  if Numth.divides g eq.c0 then Verdict.Dependent else Verdict.Independent
