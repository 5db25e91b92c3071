      REAL A(0:99)
      INTEGER K(0:9)
      DO 1 J = 0, 7
      DO 1 I = 0, 7
1     A(I+10*J+11) = A(I+10*J+1) + A(I+10*J+12)
      DO 2 L = 0, A(23)
2     K(L) = 0
      END
