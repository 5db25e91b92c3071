(** Persistent warm-start snapshots of the canonical-form memo cache.

    Every [vic] invocation used to start cold and re-solve the same
    canonical forms the previous run already paid for.  A snapshot
    freezes the sharded {!Query} cache into a compact versioned binary
    file — the stored keys are the {!Dlz_deptest.Problem.Keybuf} flat
    encodings verbatim, no per-entry re-canonicalization — and a later
    run bulk-loads it at boot, so corpus-scale re-analysis begins at
    the within-run hit ratio instead of zero.

    Safety model: a snapshot is advisory.  The header carries a
    strategy-set/version hash ({!tag}) and a payload checksum; a file
    that is missing, truncated, corrupt, or keyed by a different
    strategy set is {e refused} — {!load} never raises, the refusal
    costs one {!Dlz_engine.Stats} reject counter, and the engine simply
    cold-starts.  Degraded results are never cached, hence never
    persisted; every loaded entry is a clean verdict whose
    canonicalization argument makes it interchangeable with a fresh
    solve, so a warm run's verdicts are byte-identical to a cold
    run's. *)

val tag : unit -> int
(** The invalidation hash: format version, result ABI, and the sorted
    registered strategy names.  Adding, removing, or renaming a
    strategy changes the tag, so snapshots solved under a different
    cascade universe can never replay. *)

val default_path : unit -> string
(** The auto snapshot location:
    [$XDG_CACHE_HOME/vic/cache-v<version>-<tag>.snap] (falling back to
    [~/.cache/vic/], then the temp dir).  The tag in the name lets
    snapshots for different strategy sets coexist. *)

val save : ?stats:Stats.t -> ?cache:Query.cache -> string -> (int, string) result
(** [save path] serializes the cache (default {!Query.global_cache})
    to [path]; [Ok n] is the number of entries written.  The dump is
    key-sorted and the write is atomic (temp file + rename), so equal
    cache contents produce byte-identical files and a crashed save
    never leaves a torn one.  Creates the parent directory when
    missing.  Entries whose distances are not constant polynomials are
    skipped (cacheable problems never produce them; this is a format
    guard, not a policy).  [Error reason] means the write failed — a
    full disk, a permission error, or an injected chaos fault at the
    save boundary — and was contained: never raises, removes the tmp
    file so no partial snapshot is left at or near [path], and leaves
    any previous snapshot at [path] intact.  Records one
    {!Stats.record_snapshot_save} on success, one
    {!Stats.record_snapshot_save_fail} on failure. *)

val load :
  ?stats:Stats.t ->
  ?cache:Query.cache ->
  ?pool:Dlz_base.Pool.t ->
  string ->
  (int, string) result
(** [load path] validates and bulk-loads a snapshot into the cache
    (default {!Query.global_cache}), marking every admitted entry warm.
    [Ok n] is the number of entries admitted (the per-shard capacity
    bound can drop a surplus); with [pool] the shards load in
    parallel.  [Error reason] means the file was refused — wrong magic,
    tag mismatch, truncation, checksum failure, a malformed entry, an
    I/O error, or an injected chaos fault — and the cache is left
    exactly as it was: never raises, never partially applies a bad
    file.  Each outcome records the matching {!Stats} counter. *)
