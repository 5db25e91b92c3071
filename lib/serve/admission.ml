(* The bounded accept queue: the server's only buffer between the
   accept loop and the worker domains.  Boundedness is the point —
   under overload the accept loop gets an immediate [Shed] and answers
   the client with an explicit overload reply instead of queueing it
   into an unbounded latency grave. *)

type 'a t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  capacity : int;
  q : 'a Queue.t;
  mutable closed : bool;
}

type verdict = Admitted | Shed | Closed

let create ~capacity =
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    capacity = max 1 capacity;
    q = Queue.create ();
    closed = false;
  }

let try_admit t x =
  Mutex.lock t.lock;
  let v =
    if t.closed then Closed
    else if Queue.length t.q >= t.capacity then Shed
    else begin
      Queue.push x t.q;
      Condition.signal t.nonempty;
      Admitted
    end
  in
  Mutex.unlock t.lock;
  v

let take t =
  Mutex.lock t.lock;
  let rec go () =
    (* Drain-before-exit: items queued before [close] are still
       handed out, so admitted connections are served, not dropped. *)
    if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
    else if t.closed then None
    else begin
      Condition.wait t.nonempty t.lock;
      go ()
    end
  in
  let v = go () in
  Mutex.unlock t.lock;
  v

let close t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock
