      REAL A(0:99)
      DO 1 J = 0, 7
      DO 1 I = 0, 7
1     A(I+10*J+11) = A(I+10*J+11)
      END
