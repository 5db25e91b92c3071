(* Domain pool with one shared chunk counter.

   The calling domain and the spawned workers run the same loop over a
   map call: take the next chunk index from one atomic counter, run
   that chunk, repeat until the counter passes the last chunk.  Workers
   park on a condition between maps and are woken once per map by an
   epoch bump; the only shared lines touched per chunk are the counter
   and the completion count. *)

type pool = {
  size : int;  (* parallelism width: workers + the calling domain *)
  idle_m : Mutex.t;  (* guards [job], [epoch] and [stop] *)
  idle_c : Condition.t;  (* workers park here between maps *)
  mutable job : unit -> unit;  (* the current map's chunk loop *)
  mutable epoch : int;  (* bumped on every map — the wake-up signal *)
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

type t = Seq | Par of pool

let worker p =
  Trace.with_span ~cat:"pool" "pool.worker" @@ fun () ->
  let rec run last_epoch =
    Mutex.lock p.idle_m;
    while p.epoch = last_epoch && not p.stop do
      Condition.wait p.idle_c p.idle_m
    done;
    let e = p.epoch and stop = p.stop and job = p.job in
    Mutex.unlock p.idle_m;
    if not stop then begin
      job ();
      run e
    end
  in
  run 0

let create ~domains =
  if domains <= 1 then Seq
  else begin
    let p =
      {
        size = domains;
        idle_m = Mutex.create ();
        idle_c = Condition.create ();
        job = ignore;
        epoch = 0;
        stop = false;
        workers = [||];
      }
    in
    p.workers <-
      Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker p));
    Par p
  end

let domains = function Seq -> 1 | Par p -> p.size

let shutdown = function
  | Seq -> ()
  | Par p ->
      Mutex.lock p.idle_m;
      p.stop <- true;
      Condition.broadcast p.idle_c;
      Mutex.unlock p.idle_m;
      let ws = p.workers in
      p.workers <- [||];
      Array.iter Domain.join ws

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let resolve_jobs jobs =
  if jobs < 0 then invalid_arg "Pool.resolve_jobs: jobs must be >= 0"
  else if jobs = 0 then Domain.recommended_domain_count ()
  else jobs

let with_jobs ~jobs f =
  let jobs = resolve_jobs jobs in
  if jobs <= 1 then f None else with_pool ~domains:jobs (fun p -> f (Some p))

let map t f arr =
  match t with
  | Seq -> Array.map f arr
  | Par p ->
      let n = Array.length arr in
      if n = 0 then [||]
      else begin
        let chunk = max 1 (n / (8 * p.size)) in
        let nchunks = ((n - 1) / chunk) + 1 in
        (* Each output slot is written by exactly one chunk; reading
           [out] after [remaining] reaches 0 under [dm] gives the
           happens-before edge for those writes. *)
        let out = Array.make n None in
        let next = Atomic.make 0 in
        let dm = Mutex.create () in
        let finished = Condition.create () in
        let remaining = ref nchunks in
        let run_chunk c =
          (* Exceptions are contained per element, not per chunk: a
             poisoned job can neither kill its domain nor starve the
             elements sharing its chunk.  Failures re-surface
             deterministically after the full map completes. *)
          let work () =
            for i = c * chunk to min n ((c + 1) * chunk) - 1 do
              out.(i) <-
                Some
                  (try Ok (f arr.(i))
                   with e -> Error (e, Printexc.get_raw_backtrace ()))
            done
          in
          if Trace.timing_on () then
            Trace.with_span ~cat:"pool"
              ~lazy_args:(fun () -> [ ("chunk", string_of_int c) ])
              "pool.chunk" work
          else work ();
          Mutex.lock dm;
          decr remaining;
          if !remaining = 0 then Condition.broadcast finished;
          Mutex.unlock dm
        in
        let rec drain () =
          let c = Atomic.fetch_and_add next 1 in
          if c < nchunks then begin
            run_chunk c;
            drain ()
          end
        in
        Mutex.lock p.idle_m;
        p.job <- drain;
        p.epoch <- p.epoch + 1;
        Condition.broadcast p.idle_c;
        Mutex.unlock p.idle_m;
        drain ();
        Mutex.lock dm;
        while !remaining > 0 do
          Condition.wait finished dm
        done;
        Mutex.unlock dm;
        (* Drop the finished map's closure so the pool does not keep
           its input and output alive until the next map. *)
        Mutex.lock p.idle_m;
        p.job <- ignore;
        Mutex.unlock p.idle_m;
        (* Every element ran.  Re-raise the lowest-index failure — the
           same one the sequential path would have hit first. *)
        Array.iter
          (function
            | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
            | Some (Ok _) | None -> ())
          out;
        Array.map
          (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
          out
      end
