module Depeq = Dlz_deptest.Depeq

let intro_serial =
  {|
      REAL D(0:9)
      DO 1 I = 0, 8
1     D(I+1) = D(I)*Q
      END
|}

let intro_parallel =
  {|
      REAL D(0:9)
      DO 1 I = 0, 4
1     D(I) = D(I+5)*Q
      END
|}

let eq1_program =
  {|
      REAL C(0:99)
      DO 1 I = 0, 4
      DO 1 J = 0, 9
1     C(I+10*J) = C(I+10*J+5)
      END
|}

let eq1 () =
  Depeq.make (-5)
    [
      (1, Depeq.var ~side:`Src ~level:1 "i1" 4);
      (10, Depeq.var ~side:`Src ~level:2 "j1" 9);
      (-1, Depeq.var ~side:`Dst ~level:1 "i2" 4);
      (-10, Depeq.var ~side:`Dst ~level:2 "j2" 9);
    ]

let fig5_equation () =
  Depeq.make (-110)
    [
      (100, Depeq.var ~side:`Src ~level:3 "k1" 8);
      (-100, Depeq.var ~side:`Dst ~level:3 "k2" 8);
      (10, Depeq.var ~side:`Src ~level:2 "j1" 9);
      (-10, Depeq.var ~side:`Dst ~level:1 "i2" 8);
      (1, Depeq.var ~side:`Src ~level:1 "i1" 8);
      (-1, Depeq.var ~side:`Dst ~level:2 "j2" 9);
    ]

let mhl_program =
  {|
      REAL A(0:110)
      DO 10 I = 1, 8
      DO 10 J = 1, 10
10    A(10*I+J) = A(10*(I+2)+J) + 7
      END
|}

let fig3_program =
  {|
      REAL X(200), Y(200), B(100)
      REAL A(100,100), C(100,100)
      DO 30 I = 1, 100
      X(I) = Y(I) + 10
      DO 20 J = 1, 99
      B(J) = A(J,20)
      DO 10 K = 1, 100
      A(J+1,K) = B(J) + C(J,K)
10    CONTINUE
      Y(I+J) = A(J+1,20)
20    CONTINUE
30    CONTINUE
      END
|}

let ib_program =
  {|
      REAL B(0:99999), C(0:9)
      INTEGER IB
      IB = -1
      DO 1 I = 0, II-1
      DO 1 J = 0, JJ-1
      DO 1 K = 0, KK-1
      IB = IB + 1
      C(J) = C(J) + 1
1     B(IB) = B(IB) + Q
      END
|}

let equivalence_2d =
  {|
      REAL A(0:9,0:9)
      REAL B(0:4,0:19)
      EQUIVALENCE (A, B)
      DO 1 I = 0, 4
      DO 1 J = 0, 9
1     A(I,J) = B(I,2*J+1)
      END
|}

let equivalence_4d =
  {|
      REAL A(0:9,0:9,0:9,0:9)
      REAL B(0:4,0:19,0:9,0:9)
      EQUIVALENCE (A, B)
      DO 1 I = 0, 4
      DO 1 J = 0, 9
      DO 1 K = 0, 9
      DO 1 L = 0, 9
1     A(I,J,K,IFUN(10)) = B(I,2*J+1,K,L)
      END
|}

let c_pointers =
  {|
float d[100];
float *i, *j;
for (j = d; j <= d + 90; j += 10)
  for (i = j; i < j + 5; i++)
    *i = *(i + 5);
|}

let symbolic_program =
  {|
      REAL A(0:N*N*N-1)
      DO 1 I = 0, N-2
      DO 1 J = 0, N-1
      DO 1 K = 0, N-2
1     A(N*N*K+N*J+I) = A(N*N*K+J+N*I+N*N+N)
      END
|}

(* Coefficients 2^40 and 2^40 + 1 against upper bounds of 2^24: the
   Banerjee bound product (and most other per-term arithmetic) lands
   past [max_int = 2^62 - 1], so every numeric strategy hits
   [Intx.Overflow] while {e solving} — parsing, normalization and
   cache-key construction all stay within range.  The two coefficients
   are coprime, so dividing an equation by its gcd cannot shrink it.
   Exercises the engine's overflow containment. *)
let overflow_stress_program =
  {|
      REAL A(100)
      DO 10 I = 1, 16777216
      DO 10 J = 1, 16777216
10    A(1099511627776*I+1099511627777*J+1) = A(1099511627776*I+1099511627777*J)
      END
|}
