module Numth = Dlz_base.Numth
module Trace = Dlz_base.Trace
module Depeq = Dlz_deptest.Depeq
module Problem = Dlz_deptest.Problem

(* Canonical form of a numeric problem.  Two problems with the same
   canonical form have the same integer solution set (term reordering,
   global sign flip and division by a common factor of every coefficient
   including the constant all preserve solutions exactly), the same
   common-loop structure, and hence interchangeable query results. *)

type cterm = { ct_coeff : int; ct_level : int; ct_side : int; ct_ub : int;
               ct_name : string }

type ceq = { cc0 : int; cterms : cterm list }

type canon = {
  c_n_common : int;
  c_ubs : int list;
  c_opaque : int;
  c_eqs : ceq list;
}

let canon_eq (eq : Depeq.t) =
  let terms =
    List.map
      (fun (t : Depeq.term) ->
        {
          ct_coeff = t.Depeq.coeff;
          ct_level = t.Depeq.var.Depeq.v_level;
          ct_side = (match t.Depeq.var.Depeq.v_side with `Src -> 0 | `Dst -> 1);
          ct_ub = t.Depeq.var.Depeq.v_ub;
          (* Level-0 variables are identified by name; paired loop
             variables by (level, side) alone. *)
          ct_name =
            (if t.Depeq.var.Depeq.v_level = 0 then t.Depeq.var.Depeq.v_name
             else "");
        })
      eq.Depeq.terms
  in
  let terms =
    List.sort
      (fun a b ->
        Stdlib.compare
          (a.ct_level, a.ct_side, a.ct_name, a.ct_ub, a.ct_coeff)
          (b.ct_level, b.ct_side, b.ct_name, b.ct_ub, b.ct_coeff))
      terms
  in
  let flip = match terms with t :: _ -> t.ct_coeff < 0 | [] -> eq.Depeq.c0 < 0 in
  let c0, terms =
    if flip then
      ( -eq.Depeq.c0,
        List.map (fun t -> { t with ct_coeff = -t.ct_coeff }) terms )
    else (eq.Depeq.c0, terms)
  in
  let g = Numth.gcd_list (c0 :: List.map (fun t -> t.ct_coeff) terms) in
  let c0, terms =
    if g > 1 then
      (c0 / g, List.map (fun t -> { t with ct_coeff = t.ct_coeff / g }) terms)
    else (c0, terms)
  in
  { cc0 = c0; cterms = terms }

let canonicalize (np : Problem.numeric) =
  {
    c_n_common = np.Problem.n_common;
    c_ubs = Array.to_list np.Problem.common_ubs;
    c_opaque = np.Problem.opaque_dims;
    c_eqs = List.sort Stdlib.compare (List.map canon_eq np.Problem.eqs);
  }

(* --- flat cache keys ------------------------------------------------------- *)

(* The per-query path encodes the canonical form with
   [Problem.Keybuf.encode] into a per-domain buffer, hashes and probes
   with the bytes in place, and only materializes a [string] key on the
   miss/insert path.  A cache hit therefore allocates nothing. *)

let keybuf_key = Domain.DLS.new_key (fun () -> Problem.Keybuf.create ())

(* djb2-xor over [cascade ^ "\x00" ^ encoding]; masked nonnegative.
   The folds are top-level (not local closures) so a probe allocates
   nothing. *)
let rec hash_string s i n h =
  if i >= n then h
  else
    hash_string s (i + 1) n
      (((h lsl 5) + h) lxor Char.code (String.unsafe_get s i))

let rec hash_bytes b i n h =
  if i >= n then h
  else
    hash_bytes b (i + 1) n
      (((h lsl 5) + h) lxor Char.code (Bytes.unsafe_get b i))

let hash_key cascade kb =
  let h = hash_string cascade 0 (String.length cascade) 5381 in
  let h = (h lsl 5) + h (* the separator byte: lxor 0 is the identity *) in
  hash_bytes (Problem.Keybuf.contents kb) 0 (Problem.Keybuf.length kb) h
  land max_int

(* Does the stored key equal [cascade ^ "\x00" ^ kb]?  Compared in
   place — no concatenation, no closures. *)
let rec match_prefix stored cascade i clen =
  i >= clen
  || String.unsafe_get stored i = String.unsafe_get cascade i
     && match_prefix stored cascade (i + 1) clen

let rec match_payload stored b base i len =
  i >= len
  || String.unsafe_get stored (base + i) = Bytes.unsafe_get b i
     && match_payload stored b base (i + 1) len

let key_matches stored cascade kb =
  let clen = String.length cascade in
  let len = Problem.Keybuf.length kb in
  String.length stored = clen + 1 + len
  && String.unsafe_get stored clen = '\x00'
  && match_prefix stored cascade 0 clen
  && match_payload stored (Problem.Keybuf.contents kb) (clen + 1) 0 len

let materialize_key cascade kb =
  let clen = String.length cascade in
  let len = Problem.Keybuf.length kb in
  let s = Bytes.create (clen + 1 + len) in
  Bytes.blit_string cascade 0 s 0 clen;
  Bytes.set s clen '\x00';
  Bytes.blit (Problem.Keybuf.contents kb) 0 s (clen + 1) len;
  Bytes.unsafe_to_string s

let key_of ~cascade (p : Problem.t) =
  let kb = Domain.DLS.get keybuf_key in
  if Problem.Keybuf.encode kb p then Some (materialize_key cascade kb)
  else None

(* --- bounded, sharded memo cache ------------------------------------------- *)

(* The cache is split into shards, each an open-hashed bucket table
   bounded by its own slice of the capacity.  Sharding buys two things:
   domains querying in parallel contend on shards instead of one global
   table, and the flush-wholesale policy applies per shard — a hot
   shard overflowing drops 1/N of the cache instead of all of it, even
   in serial mode.

   Reads never take the shard lock: each bucket is an [Atomic.t]
   holding an immutable entry list, so a probe is a load plus a walk of
   immutable blocks.  A reader racing an insert either sees the new
   list or the old one — at worst a spurious miss, after which
   canonicalization makes the re-solved result interchangeable with
   the cached one.  Only writers (insert, flush, clear) serialize on
   the per-shard mutex. *)

type entry = {
  e_hash : int;  (* full hash — cheap pre-filter before key compare *)
  e_key : string;  (* cascade ^ "\x00" ^ flat canonical encoding *)
  e_res : Strategy.result;
  e_warm : bool;  (* bulk-loaded from a snapshot, not solved this run *)
}

type shard = {
  s_lock : Mutex.t;  (* writers only *)
  s_buckets : entry list Atomic.t array;
  mutable s_count : int;
  s_flushes : int Atomic.t;
  (* Padding: shard records are allocated back to back, and [s_count]
     is written on every insert; the dead fields keep one shard's hot
     word off its neighbors' cache lines. *)
  mutable s_pad0 : int;
  mutable s_pad1 : int;
  mutable s_pad2 : int;
  mutable s_pad3 : int;
  mutable s_pad4 : int;
  mutable s_pad5 : int;
} [@@warning "-69"]

type cache = {
  shard_capacity : int;  (* per-shard entry bound *)
  mask : int;  (* bucket-index mask; buckets per shard is a power of 2 *)
  shards : shard array;
}

(* Enough shards that domains rarely collide even when every domain
   the host recommends is querying; at least the historical 8. *)
let default_shards =
  let want = 2 * Domain.recommended_domain_count () in
  let rec pow2 n = if n >= want then n else pow2 (2 * n) in
  max 8 (pow2 1)

let create_cache ?(capacity = 8192) ?(shards = default_shards) () =
  if capacity < 1 then invalid_arg "Query.create_cache: capacity must be >= 1";
  if shards < 1 then invalid_arg "Query.create_cache: shards must be >= 1";
  let shard_capacity = max 1 (capacity / shards) in
  let rec pow2 n = if n >= shard_capacity then n else pow2 (2 * n) in
  let nbuckets = pow2 1 in
  {
    shard_capacity;
    mask = nbuckets - 1;
    shards =
      Array.init shards (fun _ ->
          {
            s_lock = Mutex.create ();
            s_buckets = Array.init nbuckets (fun _ -> Atomic.make []);
            s_count = 0;
            s_flushes = Atomic.make 0;
            s_pad0 = 0;
            s_pad1 = 0;
            s_pad2 = 0;
            s_pad3 = 0;
            s_pad4 = 0;
            s_pad5 = 0;
          });
  }

let global_cache = create_cache ()

let shards cache = Array.length cache.shards
let shard_capacity cache = cache.shard_capacity

let flush_locked sh =
  Array.iter (fun b -> Atomic.set b []) sh.s_buckets;
  sh.s_count <- 0

let clear cache =
  Array.iter
    (fun sh ->
      Mutex.lock sh.s_lock;
      flush_locked sh;
      Atomic.set sh.s_flushes 0;
      Mutex.unlock sh.s_lock)
    cache.shards

let shard_sizes cache =
  Array.map
    (fun sh ->
      Mutex.lock sh.s_lock;
      let n = sh.s_count in
      Mutex.unlock sh.s_lock;
      n)
    cache.shards

let shard_flushes cache =
  Array.map (fun sh -> Atomic.get sh.s_flushes) cache.shards

let size cache = Array.fold_left ( + ) 0 (shard_sizes cache)

let shard_of cache h = cache.shards.(h mod Array.length cache.shards)

(* Decorrelate the bucket index from the shard index (which consumed
   [h mod nshards]) with a multiplicative mix. *)
let bucket_index cache h = (h * 0x2545F4914F6CDD1D lsr 17) land cache.mask

(* Lock-free probe; raises [Not_found] (static, allocation-free).
   Returns the entry (not just the result) so the hit path can tell a
   warm (snapshot-loaded) hit from a cold one without re-probing. *)
let rec find_entry l h cascade kb =
  match l with
  | [] -> raise Not_found
  | e :: rest ->
      if e.e_hash = h && key_matches e.e_key cascade kb then e
      else find_entry rest h cascade kb

let find_cached cache sh h cascade kb =
  find_entry (Atomic.get sh.s_buckets.(bucket_index cache h)) h cascade kb

let insert cache sh h key r stats =
  Mutex.lock sh.s_lock;
  let slot = sh.s_buckets.(bucket_index cache h) in
  let present =
    List.exists (fun e -> e.e_hash = h && String.equal e.e_key key)
      (Atomic.get slot)
  in
  if not present then begin
    if sh.s_count >= cache.shard_capacity then begin
      (* Bounded: flush the shard wholesale rather than track recency —
         it rebuilds in one pass over any workload, and the other
         shards keep their entries. *)
      flush_locked sh;
      Atomic.incr sh.s_flushes;
      Stats.record_flush stats
    end;
    let slot = sh.s_buckets.(bucket_index cache h) in
    Atomic.set slot
      ({ e_hash = h; e_key = key; e_res = r; e_warm = false }
      :: Atomic.get slot);
    sh.s_count <- sh.s_count + 1
  end;
  Mutex.unlock sh.s_lock

(* --- snapshot support ------------------------------------------------------ *)

(* The hash of a fully materialized key equals [hash_key] of its parts:
   djb2-xor is a left fold over bytes and the separator is NUL (xor 0 =
   identity), so hashing the concatenation byte-by-byte lands on the
   same value.  This is what lets a snapshot loader re-insert entries
   from their stored keys alone. *)
let hash_of_key s = hash_string s 0 (String.length s) 5381 land max_int

let dump cache =
  let out = ref [] in
  Array.iter
    (fun sh ->
      Mutex.lock sh.s_lock;
      Array.iter
        (fun b ->
          List.iter
            (fun e -> out := (e.e_key, e.e_res) :: !out)
            (Atomic.get b))
        sh.s_buckets;
      Mutex.unlock sh.s_lock)
    cache.shards;
  (* Sorted by key so two dumps of the same logical contents are equal
     regardless of insertion or probe order — the snapshot writer
     inherits byte-for-byte determinism from this. *)
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

let load_entries ?pool cache kvs =
  let n = Array.length kvs in
  let nshards = Array.length cache.shards in
  let hashes = Array.map (fun (k, _) -> hash_of_key k) kvs in
  (* Group entry indices by shard: each shard's group is then loaded
     under that shard's lock alone, so the groups can go to the pool —
     parallel bulk load with zero cross-shard contention. *)
  let groups = Array.make nshards [] in
  for i = n - 1 downto 0 do
    let s = hashes.(i) mod nshards in
    groups.(s) <- i :: groups.(s)
  done;
  let load_shard si =
    let sh = cache.shards.(si) in
    let loaded = ref 0 in
    Mutex.lock sh.s_lock;
    List.iter
      (fun i ->
        (* Respect the shard bound: a snapshot larger than the cache
           loads a prefix instead of triggering flush churn. *)
        if sh.s_count < cache.shard_capacity then begin
          let k, r = kvs.(i) in
          let h = hashes.(i) in
          let slot = sh.s_buckets.(bucket_index cache h) in
          let present =
            List.exists
              (fun e -> e.e_hash = h && String.equal e.e_key k)
              (Atomic.get slot)
          in
          if not present then begin
            Atomic.set slot
              ({ e_hash = h; e_key = k; e_res = r; e_warm = true }
              :: Atomic.get slot);
            sh.s_count <- sh.s_count + 1;
            incr loaded
          end
        end)
      groups.(si);
    Mutex.unlock sh.s_lock;
    !loaded
  in
  match pool with
  | Some p when Dlz_base.Pool.domains p > 1 ->
      Array.fold_left ( + ) 0
        (Dlz_base.Pool.map p load_shard (Array.init nshards Fun.id))
  | _ ->
      let total = ref 0 in
      for si = 0 to nshards - 1 do
        total := !total + load_shard si
      done;
      !total

(* Histogram handles resolved once: [Engine.reset_metrics] resets
   histograms in place, so the handles stay valid for the process
   lifetime and the per-query path never touches the registry.  Each
   query lands in exactly one of these; the end-to-end "query" row is
   their merge ([Stats.query_hist]), so the hot path pays a single
   observation. *)
let h_hit = Trace.hist "cache.hit"
let h_miss = Trace.hist "cache.miss"
let h_uncacheable = Trace.hist "cache.uncacheable"

(* Where a query's answer came from, as seen by the cache — the
   signal a per-client attribution layer wants without re-deriving it
   from counters. *)
type disposition = Hit_warm | Hit_cold | Miss | Uncacheable

(* End-of-query bookkeeping, deliberately a top-level function (a
   closure here would put an allocation on the cache-hit path).  The
   allocation delta is taken {e first}, so the telemetry below —
   boxed-int64 clock reads, span args — never pollutes the counter.
   One settle clock read is shared between the histogram observation
   and the span's end timestamp, and the end-of-span attributes are a
   thunk forced only at export. *)
let settled stats sp t0 w0 ~hit disposition h (r : Strategy.result) =
  Stats.record_alloc stats ~hit (int_of_float (Gc.minor_words ()) - w0);
  if Trace.timing_on () then begin
    let t1 = Trace.now_ns () in
    Trace.Hist.observe h (Int64.sub t1 t0);
    if Trace.is_live sp then
      Trace.finish sp ~ts:t1
        ~lazy_args:(fun () ->
          ("cache", disposition)
          :: ("decided_by", r.Strategy.decided_by)
          ::
          (match r.Strategy.degraded with
          | [] -> []
          | ds ->
              [
                ( "degraded_by",
                  String.concat ";"
                    (List.map (fun (s, why) -> s ^ ":" ^ why) ds) );
              ]))
    else Trace.finish sp
  end
  else Trace.finish sp;
  r

let notify observer d =
  match observer with None -> () | Some f -> f d

let memoize ?(stats = Stats.global) ?(cache = global_cache) ?(annot = [])
    ?observer ?(fresh = false) ~cascade_name ~env run p =
  Stats.record_query stats;
  (* One span per query (the high-volume span class — subject to the
     sampling knob); cache disposition and verdict provenance land as
     end-of-span attributes, latencies in the "query"/"cache.*"
     histograms.  A span sampled out here suppresses the nested
     strategy spans too, so the stream never shows orphan children.
     [annot] rides on the begin event — the serve daemon threads the
     request id through here, correlating every span under a request
     with the response the client saw. *)
  let t0 = if Trace.timing_on () then Trace.now_ns () else 0L in
  let sp =
    if Trace.recording_on () then
      Trace.start ~cat:"engine" ~sample:true ~ts:t0
        ~lazy_args:(fun () -> ("cascade", cascade_name) :: annot)
        "query"
    else Trace.null_span
  in
  let w0 = int_of_float (Gc.minor_words ()) in
  try
    let kb = Domain.DLS.get keybuf_key in
    if not (Problem.Keybuf.encode kb p) then begin
      Stats.record_uncacheable stats;
      notify observer Uncacheable;
      settled stats sp t0 w0 ~hit:false "uncacheable" h_uncacheable
        (run ~env p)
    end
    else begin
      let h = hash_key cascade_name kb in
      let sh = shard_of cache h in
      match
        if fresh then raise_notrace Not_found
        else find_cached cache sh h cascade_name kb
      with
      | e ->
          Stats.record_hit stats ~warm:e.e_warm;
          notify observer (if e.e_warm then Hit_warm else Hit_cold);
          settled stats sp t0 w0 ~hit:true "hit" h_hit e.e_res
      | exception Not_found ->
          (* Solve outside any lock: queries on other keys proceed
             while this one runs.  Two domains racing on the same fresh
             key may both solve; canonicalization makes the results
             interchangeable, and each call still records exactly one
             of hit/miss/uncacheable. *)
          Stats.record_miss stats;
          notify observer Miss;
          let r = run ~env p in
          if r.Strategy.degraded <> [] then
            (* A degraded result reflects a contained fault (budget,
               chaos, overflow), not the problem's answer; caching it
               would let one faulted run poison every later query on
               the same key.  Re-solving is deterministic: the same
               fault conditions reproduce the same degradation. *)
            settled stats sp t0 w0 ~hit:false "miss" h_miss r
          else begin
            insert cache sh h (materialize_key cascade_name kb) r stats;
            settled stats sp t0 w0 ~hit:false "miss" h_miss r
          end
    end
  with e ->
    (* Only process-level conditions escape the cascade; keep the
       exported stream balanced even then. *)
    let bt = Printexc.get_raw_backtrace () in
    if Trace.is_live sp then Trace.finish sp ~args:[ ("cache", "error") ]
    else Trace.finish sp;
    Printexc.raise_with_backtrace e bt
