      REAL A(0:N*N*N-1)
      DO 1 I = 0, N-2
      DO 1 J = 0, N-1
      DO 1 K = 0, N-2
1     A(N*N*K+N*J+I) = A(N*N*K+J+N*I+N*N+N)
      END
