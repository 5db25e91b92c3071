(* A parallelism width and a map over it.

   A pool owns no domain.  [map] runs its chunks on the calling domain,
   taking chunk indices from one atomic counter.  Once the caller has
   spent longer on the map than spawning helpers last cost, and chunks
   are still left, it spawns [width - 1] helpers that drain the same
   counter; it joins them before it returns.  A short map so never pays
   for a domain, and a long one pays for its helpers only after it has
   already spent as much running alone (the ski-rental rule). *)

type t = int (* the parallelism width: the caller plus its helpers *)

let domains t = t
let with_pool ~domains f = f (max 1 domains)

let resolve_jobs jobs =
  if jobs < 0 then invalid_arg "Pool.resolve_jobs: jobs must be >= 0"
  else if jobs = 0 then Domain.recommended_domain_count ()
  else jobs

let with_jobs ~jobs f =
  let jobs = resolve_jobs jobs in
  if jobs <= 1 then f None else with_pool ~domains:jobs (fun p -> f (Some p))

(* What the last spawn of a map's helpers took, in ns: the time a map
   runs on the caller alone before it spawns.  1 ms (spawning 3 domains
   on a 2-core host) until a spawn has been measured. *)
let spawn_ns = Atomic.make 1_000_000L

let map width f arr =
  let n = Array.length arr in
  if width <= 1 || n = 0 then Array.map f arr
  else begin
    let chunk = max 1 (n / (8 * width)) in
    let nchunks = ((n - 1) / chunk) + 1 in
    (* Each output slot is written by exactly one chunk (the initial
       value is never read); reading [out] after joining every helper
       gives the happens-before edge for those writes. *)
    let out = Array.make n (Error (Exit, Printexc.get_callstack 0)) in
    let next = Atomic.make 0 in
    (* [tick] runs after each element: the caller's spawn check. *)
    let run_chunk tick c =
      (* Exceptions are contained per element, not per chunk: a
         poisoned job can neither kill its domain nor starve the
         elements sharing its chunk.  Failures re-surface
         deterministically after the full map completes. *)
      let work () =
        for i = c * chunk to min n ((c + 1) * chunk) - 1 do
          out.(i) <-
            (try Ok (f arr.(i))
             with e -> Error (e, Printexc.get_raw_backtrace ()));
          tick ()
        done
      in
      if Trace.timing_on () then
        Trace.with_span ~cat:"pool"
          ~lazy_args:(fun () -> [ ("chunk", string_of_int c) ])
          "pool.chunk" work
      else work ()
    in
    let rec drain tick =
      let c = Atomic.fetch_and_add next 1 in
      if c < nchunks then begin
        run_chunk tick c;
        drain tick
      end
    in
    (* Spawning stops at the first domain that cannot be allocated
       (past [Domain]'s limit); whoever is running finishes the map. *)
    let spawn () =
      let s0 = Trace.now_ns () in
      let rec go k acc =
        if k = 0 || Atomic.get next >= nchunks then acc
        else
          match
            Domain.spawn (fun () ->
                Trace.prepare_domain ();
                Trace.with_span ~cat:"pool" "pool.worker" (fun () ->
                    drain ignore))
          with
          | d -> go (k - 1) (d :: acc)
          | exception Failure _ -> acc
      in
      let helpers = go (width - 1) [] in
      Atomic.set spawn_ns (Int64.sub (Trace.now_ns ()) s0);
      helpers
    in
    (* The caller runs alone until the map has outlasted a spawn with
       chunks left, then spawns once.  It checks after every element,
       not every chunk: one chunk of a skewed map can take seconds. *)
    let t0 = Trace.now_ns () in
    let helpers = ref None in
    let check () =
      if
        Option.is_none !helpers
        && Atomic.get next < nchunks
        && Int64.sub (Trace.now_ns ()) t0 > Atomic.get spawn_ns
      then helpers := Some (spawn ())
    in
    drain check;
    Option.iter (List.iter Domain.join) !helpers;
    (* Every element ran.  Re-raise the lowest-index failure — the
       same one the sequential path would have hit first. *)
    Array.map
      (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      out
  end
