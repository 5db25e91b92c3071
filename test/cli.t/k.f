      REAL C(0:99)
      REAL A(0:110)
      DO 1 I = 0, 4
      DO 1 J = 0, 9
1     C(I+10*J) = C(I+10*J+5)
      DO 10 I = 1, 8
      DO 10 J = 1, 10
10    A(10*I+J) = A(10*(I+2)+J) + 7
      END
