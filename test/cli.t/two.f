      DIMENSION A(10,10)
      DO 10 I = 1, 8
      DO 10 J = 1, 8
10    A(I,J+1) = A(I+1,J)
      END
