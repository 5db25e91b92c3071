(* The parallel width of the test suites, read once from DLZ_TEST_JOBS.
   The @matrix-ci rows in test/ci_matrix.sh set it to 2 for two-core
   runners. *)

(* The requested width; [None] when DLZ_TEST_JOBS is unset or not an
   integer. *)
let requested = Option.bind (Sys.getenv_opt "DLZ_TEST_JOBS") int_of_string_opt

(* The width of the suites that always fan out: the requested width but
   at least 2, so a map that outlasts a spawn really runs in parallel;
   4 by default. *)
let jobs = match requested with Some n -> max 2 n | None -> 4

(* [f] on a pool of width [jobs].  The pool spawns nothing itself: a
   map spawns helpers only once it has run longer than a spawn, so a
   test that needs work off the calling domain must make its map that
   long (the tests slow the caller down until a helper has run). *)
let with_pool f = Dlz_base.Pool.with_pool ~domains:jobs f
