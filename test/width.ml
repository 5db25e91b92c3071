(* The parallel width of the test suites, read once from DLZ_TEST_JOBS.
   The @matrix-ci rows in test/ci_matrix.sh set it to 2 for two-core
   runners. *)

(* The requested width; [None] when DLZ_TEST_JOBS is unset or not an
   integer. *)
let requested = Option.bind (Sys.getenv_opt "DLZ_TEST_JOBS") int_of_string_opt

(* The width of the suites that always fan out: the requested width but
   at least 2, so the pool really runs in parallel; 4 by default. *)
let jobs = match requested with Some n -> max 2 n | None -> 4

(* [f] on a fresh pool of width [jobs], shut down afterwards. *)
let with_pool f = Dlz_base.Pool.with_pool ~domains:jobs f
