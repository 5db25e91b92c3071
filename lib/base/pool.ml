(* Work-stealing domain pool.

   Each domain slot (the caller is slot 0, spawned workers are slots
   1..size-1) owns a deque of pending chunk jobs.  A map call deals its
   chunks round-robin over all deques up front; every domain then runs
   its own deque LIFO (newest first — hot in cache) and, when it runs
   dry, steals the *oldest* chunk from another deque (FIFO end), so a
   thief takes the work its victim would have reached last.  The two
   ends never compete for the same element except at size 1, and each
   deque has its own lock, so domains touch a shared line only when
   dealing, stealing, or parking — never per element. *)

type deque = {
  dq_lock : Mutex.t;
  mutable dq_buf : (unit -> unit) option array;  (* circular; None = hole *)
  mutable dq_head : int;  (* steal end: next index to steal (monotonic) *)
  mutable dq_tail : int;  (* owner end: next push index (monotonic) *)
}

type pool = {
  size : int;  (* parallelism width: workers + the calling domain *)
  deques : deque array;  (* length [size]; index = domain slot *)
  idle_m : Mutex.t;  (* guards [epoch] and [stop] *)
  idle_c : Condition.t;  (* workers park here between bursts of work *)
  mutable epoch : int;  (* bumped on every deal — the wake-up signal *)
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

type t = Seq | Par of pool

(* --- metrics and tuning --------------------------------------------------- *)

(* Process-wide so they survive the short-lived pools [with_jobs] spins
   up per run, and so [Engine.reset_metrics] has one thing to reset.
   Steal volume says how unbalanced the deal was; the EMA is the
   exponential moving average of the observed per-element cost (ns) of
   auto-chunked maps, the feedback that sizes the next map's chunks. *)

let group = Dlz_obs.Family.group ()

let steal_count =
  Dlz_obs.Family.cell
    (Dlz_obs.Family.counter ~group ~help:"chunks stolen across domains"
       "vic_pool_steals_total")
    []

let ema_elem_ns =
  Dlz_obs.Family.cell
    (Dlz_obs.Family.gauge ~group
       ~help:"EMA of observed per-element cost (nanoseconds)"
       "vic_pool_ema_elem_ns")
    []

let () = Dlz_obs.Family.register ~name:"pool" group
let steals () = Atomic.get steal_count
let reset_metrics () = Dlz_obs.Family.reset_group group

let note_elem_ns ns =
  let old = Atomic.get ema_elem_ns in
  let next = if old = 0 then ns else ((3 * old) + ns) / 4 in
  Atomic.set ema_elem_ns next

(* A chunk should cost enough that dealing/stealing it is noise.  The
   floor is 20µs of work per chunk; when the queue-wait histogram has
   data (timing on), the floor grows to 32x the median dispatch
   latency, so a loaded machine coarsens its own chunks.  The cap keeps
   at least two chunks per domain in play — thieves need something to
   steal. *)
let auto_chunk_for ~size ~ema ~wait_p50 n =
  let max_chunk = max 1 (n / (2 * size)) in
  if ema <= 0 then min max_chunk (max 1 (n / (8 * size)))
  else
    let target_ns = max 20_000 (32 * wait_p50) in
    min max_chunk (max 1 (target_ns / ema))

let queue_wait_p50 () =
  let h = Trace.hist "pool.queue_wait" in
  if Trace.Hist.count h = 0 then 0
  else int_of_float (Trace.Hist.percentile h 0.5)

let auto_chunk_par p n =
  auto_chunk_for ~size:p.size ~ema:(Atomic.get ema_elem_ns)
    ~wait_p50:(queue_wait_p50 ()) n

(* --- deque primitives (each call holds that deque's lock only) ------------- *)

let dq_create () =
  {
    dq_lock = Mutex.create ();
    dq_buf = Array.make 64 None;
    dq_head = 0;
    dq_tail = 0;
  }

let dq_grow dq =
  let cap = Array.length dq.dq_buf in
  let buf = Array.make (2 * cap) None in
  for i = dq.dq_head to dq.dq_tail - 1 do
    buf.(i mod (2 * cap)) <- dq.dq_buf.(i mod cap)
  done;
  dq.dq_buf <- buf

let dq_push dq job =
  Mutex.lock dq.dq_lock;
  let cap = Array.length dq.dq_buf in
  if dq.dq_tail - dq.dq_head = cap then dq_grow dq;
  dq.dq_buf.(dq.dq_tail mod Array.length dq.dq_buf) <- Some job;
  dq.dq_tail <- dq.dq_tail + 1;
  Mutex.unlock dq.dq_lock

(* Owner end: newest chunk (LIFO). *)
let dq_pop dq =
  Mutex.lock dq.dq_lock;
  let r =
    if dq.dq_tail = dq.dq_head then None
    else begin
      dq.dq_tail <- dq.dq_tail - 1;
      let i = dq.dq_tail mod Array.length dq.dq_buf in
      let j = dq.dq_buf.(i) in
      dq.dq_buf.(i) <- None;
      j
    end
  in
  Mutex.unlock dq.dq_lock;
  r

(* Thief end: oldest chunk (FIFO). *)
let dq_steal dq =
  Mutex.lock dq.dq_lock;
  let r =
    if dq.dq_tail = dq.dq_head then None
    else begin
      let i = dq.dq_head mod Array.length dq.dq_buf in
      let j = dq.dq_buf.(i) in
      dq.dq_buf.(i) <- None;
      dq.dq_head <- dq.dq_head + 1;
      j
    end
  in
  Mutex.unlock dq.dq_lock;
  r

(* Own deque first, then scan the others starting just past our slot
   (spreads thieves over victims). *)
let find_job p slot =
  match dq_pop p.deques.(slot) with
  | Some _ as j -> j
  | None ->
      let n = p.size in
      let rec scan k =
        if k >= n then None
        else
          match dq_steal p.deques.((slot + k) mod n) with
          | Some _ as j ->
              Atomic.incr steal_count;
              j
          | None -> scan (k + 1)
      in
      scan 1

let worker p slot =
  Trace.with_span ~cat:"pool" "pool.worker" @@ fun () ->
  let rec run last_epoch =
    match find_job p slot with
    | Some job ->
        job ();
        run last_epoch
    | None ->
        Mutex.lock p.idle_m;
        while p.epoch = last_epoch && not p.stop do
          Condition.wait p.idle_c p.idle_m
        done;
        let e = p.epoch and stop = p.stop in
        Mutex.unlock p.idle_m;
        if not stop then run e
  in
  run 0

let create ~domains =
  if domains <= 1 then Seq
  else begin
    let p =
      {
        size = domains;
        deques = Array.init domains (fun _ -> dq_create ());
        idle_m = Mutex.create ();
        idle_c = Condition.create ();
        epoch = 0;
        stop = false;
        workers = [||];
      }
    in
    p.workers <-
      Array.init (domains - 1) (fun i ->
          Domain.spawn (fun () -> worker p (i + 1)));
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

let auto_chunk t n =
  match t with Seq -> max 1 n | Par p -> auto_chunk_par p n

let with_jobs ?pool ~jobs f =
  match pool with
  | Some _ -> f pool
  | None ->
      let jobs = resolve_jobs jobs in
      if jobs <= 1 then f None
      else with_pool ~domains:jobs (fun p -> f (Some p))

let map t ?chunk f arr =
  (match chunk with
  | Some c when c <= 0 -> invalid_arg "Pool.map: chunk must be > 0"
  | _ -> ());
  match t with
  | Seq -> Array.map f arr
  | Par p ->
      let n = Array.length arr in
      if n = 0 then [||]
      else begin
        let chunk_sz, auto =
          match chunk with
          | Some c -> (c, false)
          | None -> (auto_chunk_par p n, true)
        in
        (* Per-call completion state.  Each output slot is written by
           exactly one chunk; reading [out] after [remaining] reaches 0
           under [dm] gives the happens-before edge for those writes. *)
        let out = Array.make n None in
        let nchunks = ((n - 1) / chunk_sz) + 1 in
        let dm = Mutex.create () in
        let finished = Condition.create () in
        let remaining = ref nchunks in
        let work_ns = Atomic.make 0 in
        let enqueued_ns = if Trace.timing_on () then Trace.now_ns () else 0L in
        let run_chunk c () =
          (* Exceptions are contained per element, not per chunk: a
             poisoned job can neither kill its domain nor starve the
             elements sharing its chunk.  Failures re-surface
             deterministically after the full map completes. *)
          let work () =
            let t0 = if auto then Trace.now_ns () else 0L in
            let lo = c * chunk_sz in
            let hi = min n (lo + chunk_sz) in
            for i = lo to hi - 1 do
              out.(i) <-
                Some
                  (try Ok (f arr.(i))
                   with e -> Error (e, Printexc.get_raw_backtrace ()))
            done;
            if auto then
              let dt = Int64.to_int (Int64.sub (Trace.now_ns ()) t0) in
              ignore (Atomic.fetch_and_add work_ns dt)
          in
          (if not (Trace.timing_on ()) then work ()
           else begin
             (* Queue wait = deal-to-start latency of this chunk on
                whichever domain picked it up — the signal the chunk
                auto-tuner feeds on. *)
             let wait = Int64.sub (Trace.now_ns ()) enqueued_ns in
             Trace.Hist.observe (Trace.hist "pool.queue_wait") wait;
             Trace.with_span ~cat:"pool"
               ~lazy_args:(fun () ->
                 [
                   ("chunk", string_of_int c);
                   ("queue_wait_ns", Int64.to_string wait);
                 ])
               "pool.chunk" work
           end);
          Mutex.lock dm;
          decr remaining;
          if !remaining = 0 then Condition.broadcast finished;
          Mutex.unlock dm
        in
        (* Deal chunks round-robin across every deque (slot 0 = the
           caller's own), then bump the epoch to wake parked workers.
           The deal order never affects the output — results land by
           index — only who is likely to run what. *)
        for c = 0 to nchunks - 1 do
          dq_push p.deques.(c mod p.size) (run_chunk c)
        done;
        Mutex.lock p.idle_m;
        p.epoch <- p.epoch + 1;
        Condition.broadcast p.idle_c;
        Mutex.unlock p.idle_m;
        (* The calling domain works its own deque and steals like any
           worker instead of idling. *)
        let rec help () =
          match find_job p 0 with
          | Some job ->
              job ();
              help ()
          | None -> ()
        in
        help ();
        Mutex.lock dm;
        while !remaining > 0 do
          Condition.wait finished dm
        done;
        Mutex.unlock dm;
        if auto then begin
          let total = Atomic.get work_ns in
          if total > 0 then note_elem_ns (max 1 (total / n))
        end;
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
