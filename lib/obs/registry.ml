(* The metric registry: one process-wide table of named collectors.

   A collector is a thunk producing a flat list of samples at scrape
   time — the registry never stores live metric state, so the hot
   paths that bump counters (engine stats, pool, serve) keep their
   own representations (Atomic.t, domain-local shards) and pay
   nothing for being scrapeable.  Everything shared here sits behind
   one mutex touched only at register/collect/reset time, never per
   observation.

   Replace semantics: registering under an existing name replaces the
   old collector.  Sequential servers in one process (tests, bench)
   each register their live metrics under the same name and the
   latest wins, which is the scrape a caller wants. *)

type hist_snapshot = {
  h_count : int;
  h_sum_ns : int64;
  h_max_ns : int64;
  h_p50_ns : float;
  h_p99_ns : float;
  h_buckets : (int64 * int) list;
      (* (upper bound ns, cumulative count), ascending; the +Inf
         bucket is implicit (= h_count). *)
}

type value = Counter of int | Gauge of float | Hist of hist_snapshot

type sample = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;
  s_value : value;
}

let sample ?(help = "") ?(labels = []) name value =
  { s_name = name; s_help = help; s_labels = labels; s_value = value }

type collector = {
  c_collect : unit -> sample list;
  c_reset : (unit -> unit) option;
}

let mu = Mutex.create ()
let collectors : (string, collector) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let register ~name ?reset collect =
  locked (fun () ->
      Hashtbl.replace collectors name { c_collect = collect; c_reset = reset })

let unregister name = locked (fun () -> Hashtbl.remove collectors name)

(* Snapshot the collector list under the lock, run the thunks outside
   it: a collector that consults another subsystem (or registers a
   late collector) must not deadlock the registry. *)
let snapshot_collectors () =
  locked (fun () ->
      Hashtbl.fold (fun n c acc -> (n, c) :: acc) collectors [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let compare_sample a b =
  match compare a.s_name b.s_name with
  | 0 -> compare a.s_labels b.s_labels
  | c -> c

let counter ?(labels = []) samples name =
  List.find_map
    (fun s ->
      match s.s_value with
      | Counter n when s.s_name = name && s.s_labels = labels -> Some n
      | _ -> None)
    samples

let collect () =
  snapshot_collectors ()
  |> List.concat_map (fun (_, c) -> c.c_collect ())
  |> List.stable_sort compare_sample

let reset_all () =
  snapshot_collectors ()
  |> List.iter (fun (_, c) -> Option.iter (fun f -> f ()) c.c_reset)
