(** Bulk analysis: every kernel under a directory through one warm
    cache, one NDJSON report.

    [vic analyze --dir DIR] walks DIR for FORTRAN-77 ([.f]) and C
    ([.c]) kernels and analyzes each through the engine's memoized
    query path — the point being the shared cache: kernels of a family
    raise the same canonical dependence equations, so later files ride
    on earlier files' solves (and on a persisted snapshot, when one was
    loaded).  Files fan out over the pool, one file per element of
    {!Dlz_base.Pool.map}; the per-file analysis itself stays serial, so
    no pool is ever entered twice.  A file is one {!Dlz_ir.Access.of_program} and one
    {!Dlz_engine.Engine.query_all} pass: its verdict counts, dep rows
    and loop report all read that one answer per pair.

    The report is one NDJSON line per kernel (sorted by relative path)
    plus a closing summary line, and its default fields are chosen to
    be {e deterministic}: byte-identical for any [--jobs N], which is
    the property the test suite pins.  Per-file latency and the cache
    warm/cold disposition are genuinely scheduling-dependent (two
    domains can race to first-solve the same canonical form), so those
    fields only appear under [~timings:true] ([--timings]), which
    forfeits byte-identity and says so in the docs rather than lying
    with stable-looking numbers.

    A kernel that fails to parse or normalize yields an error line
    ([{"file":…,"ok":false,"error":…}]) and never aborts the other
    files. *)

val kernels : string -> string list
(** The relative paths (sorted, ['/']-separated) of every [.f] and
    [.c] file under the directory, recursively. *)

val run :
  ?cascade:Dlz_engine.Cascade.t ->
  ?budget:Dlz_base.Budget.t ->
  ?pool:Dlz_base.Pool.t ->
  ?env:Dlz_symbolic.Assume.t ->
  ?timings:bool ->
  string ->
  string list
(** [run dir] analyzes every kernel under [dir] and returns the NDJSON
    report lines: one per kernel in sorted order, then the summary.
    With [pool] the files are analyzed in parallel by {!Dlz_base.Pool.map},
    the report order unchanged.  Each file gets a ["bulk.file"] trace
    span.  [timings] adds the [elapsed_ns] and summary [cache] fields
    described above; the summary's [cache.queries] equals its [pairs],
    one query per pair. *)
