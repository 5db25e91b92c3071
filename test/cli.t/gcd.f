      DIMENSION A(100)
      DO 10 I = 1, 10
10    A(2*I) = A(2*I+4)
      END
