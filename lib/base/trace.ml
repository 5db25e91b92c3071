let now_ns () = Monotonic_clock.now ()

(* --- recording level ------------------------------------------------------ *)

type level = Off | Timing | Full

let level_of_string s =
  match String.lowercase_ascii s with
  | "" | "0" | "off" -> Some Off
  | "timing" -> Some Timing
  | "1" | "on" | "full" -> Some Full
  | _ -> None

let level_state =
  Atomic.make
    (match Sys.getenv_opt "DLZ_TRACE" with
    | None -> Off
    | Some s -> ( match level_of_string s with Some l -> l | None -> Off))

let level () = Atomic.get level_state
let timing_on () = Atomic.get level_state <> Off
let recording_on () = Atomic.get level_state = Full

(* --- category mask -------------------------------------------------------- *)

(* Full pays only for the categories you actually record: a span or
   instant whose category is masked out is a None-check and an
   immediate No_span.  [None] = everything enabled (the default); the
   empty category is always enabled, so uncategorised load-bearing
   spans (the per-request serve span, CLI phases) cannot be silenced
   by accident. *)

let parse_mask s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")
  |> List.sort_uniq compare

let mask_state : string list option Atomic.t =
  Atomic.make
    (match Sys.getenv_opt "DLZ_TRACE_MASK" with
    | None | Some "" -> None
    | Some s -> Some (parse_mask s))

let set_mask m =
  Atomic.set mask_state
    (Option.map
       (fun cats ->
         List.map String.trim cats
         |> List.filter (fun x -> x <> "")
         |> List.sort_uniq compare)
       m)

let mask () = Atomic.get mask_state

let cat_enabled cat =
  match Atomic.get mask_state with
  | None -> true
  | Some cats -> cat = "" || List.mem cat cats

(* --- sampling ------------------------------------------------------------- *)

type sampling_state = { s_seed : int64; s_rate_ppm : int }

let clamp_rate r = if r < 0. then 0. else if r > 1. then 1. else r

let sampling_of ~seed rate =
  { s_seed = seed; s_rate_ppm = int_of_float (clamp_rate rate *. 1_000_000.) }

let sampling_of_string s =
  let parse seed_s rate_s =
    match (Int64.of_string_opt seed_s, float_of_string_opt rate_s) with
    | Some seed, Some r when r >= 0. && r <= 1. -> Ok (seed, r)
    | Some _, Some _ -> Error "rate must be in [0, 1]"
    | None, _ -> Error (Printf.sprintf "bad seed %S" seed_s)
    | _, None -> Error (Printf.sprintf "bad rate %S" rate_s)
  in
  match String.index_opt s ':' with
  | None -> parse "0" s
  | Some i ->
      parse (String.sub s 0 i) (String.sub s (i + 1) (String.length s - i - 1))

let sampling_state =
  Atomic.make
    (match Sys.getenv_opt "DLZ_TRACE_SAMPLE" with
    | None | Some "" -> sampling_of ~seed:0L 1.0
    | Some s -> (
        match sampling_of_string s with
        | Ok (seed, rate) -> sampling_of ~seed rate
        | Error _ -> sampling_of ~seed:0L 1.0))

let set_sampling ?(seed = 0L) rate = Atomic.set sampling_state (sampling_of ~seed rate)

let sampling () =
  let s = Atomic.get sampling_state in
  (s.s_seed, float_of_int s.s_rate_ppm /. 1_000_000.)

(* --- per-domain ring buffers ---------------------------------------------- *)

type phase = B | E | I

type event = {
  ev_seq : int;
  ev_ts : int64;
  ev_ph : phase;
  ev_name : string;
  ev_cat : string;
  ev_args : (string * string) list;
}

(* The rings are structure-of-arrays: parallel arrays of timestamp
   (as an unboxed [int] — a monotonic nanosecond count fits 62 bits),
   phase byte, name, category, and an argument {e thunk}.  A push is
   one cursor bump and five stores into memory only the recording
   domain touches — no record allocation, no string formatting.
   Argument rendering is fully deferred: the thunk is forced at
   export/[events] time only, so an event that is overwritten before
   anyone looks at it never built its strings at all.  Thunks must
   therefore be pure (close over immutable data) — every in-tree call
   site closes over strings and integers fixed at record time. *)

let no_args : unit -> (string * string) list = fun () -> []

let thunk_of args lazy_args =
  match lazy_args with
  | Some f -> f
  | None -> ( match args with [] -> no_args | args -> fun () -> args)

type buffer = {
  b_dom : int;
  b_cap : int;  (* power of two *)
  b_ts : int array;
  b_ph : Bytes.t;
  b_name : string array;
  b_cat : string array;
  b_args : (unit -> (string * string) list) array;
  mutable b_len : int;  (* total events ever recorded (monotone) *)
  mutable b_spans : int;  (* sampled spans begun — the sampling counter *)
  mutable b_suppress : int;  (* depth inside a sampled-out subtree *)
}

let next_pow2 n =
  let r = ref 1 in
  while !r < n do
    r := !r lsl 1
  done;
  !r

let default_capacity =
  ref
    (match Sys.getenv_opt "DLZ_TRACE_BUF" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> next_pow2 n
        | _ -> 65536)
    | None -> 65536)

let set_buffer_capacity n =
  if n < 1 then invalid_arg "Trace.set_buffer_capacity: capacity must be >= 1";
  default_capacity := next_pow2 n

(* Buffers register themselves once, at a domain's first record; the
   mutex guards only that registration and snapshot reads, never the
   recording fast path. *)
let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []

let dls_key =
  Domain.DLS.new_key (fun () ->
      let cap = !default_capacity in
      let b =
        {
          b_dom = (Domain.self () :> int);
          b_cap = cap;
          b_ts = Array.make cap 0;
          b_ph = Bytes.make cap '\000';
          b_name = Array.make cap "";
          b_cat = Array.make cap "";
          b_args = Array.make cap no_args;
          b_len = 0;
          b_spans = 0;
          b_suppress = 0;
        }
      in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let buffer () = Domain.DLS.get dls_key

(* A ring costs a few ms to allocate, so it is allocated where no span
   is being timed: here, for the domain that turns recording on, and at
   the start of a pool helper.  Any other domain allocates its ring at
   its first record. *)
let prepare_domain () = if recording_on () then ignore (buffer () : buffer)

let set_level l =
  Atomic.set level_state l;
  prepare_domain ()

(* Phase bytes in the ring. *)
let ph_b = '\000'
let ph_e = '\001'
let ph_i = '\002'

let phase_of_byte = function '\000' -> B | '\001' -> E | _ -> I

let push b ph name cat fargs ts =
  let i = b.b_len land (b.b_cap - 1) in
  b.b_ts.(i) <- ts;
  Bytes.set b.b_ph i ph;
  b.b_name.(i) <- name;
  b.b_cat.(i) <- cat;
  b.b_args.(i) <- fargs;
  b.b_len <- b.b_len + 1

let ts_now = function None -> Int64.to_int (now_ns ()) | Some t -> Int64.to_int t

let buffers_snapshot () =
  Mutex.lock registry_lock;
  let bs = !registry in
  Mutex.unlock registry_lock;
  bs

let dropped () =
  List.fold_left
    (fun acc b -> acc + max 0 (b.b_len - b.b_cap))
    0 (buffers_snapshot ())

let events () =
  let evs =
    List.concat_map
      (fun b ->
        let n = min b.b_len b.b_cap in
        let first = b.b_len - n in
        List.init n (fun i ->
            let j = (first + i) land (b.b_cap - 1) in
            ( b.b_dom,
              {
                ev_seq = first + i;
                ev_ts = Int64.of_int b.b_ts.(j);
                ev_ph = phase_of_byte (Bytes.get b.b_ph j);
                ev_name = b.b_name.(j);
                ev_cat = b.b_cat.(j);
                ev_args = b.b_args.(j) ();
              } )))
      (buffers_snapshot ())
  in
  List.sort
    (fun (d1, e1) (d2, e2) ->
      match Int64.compare e1.ev_ts e2.ev_ts with
      | 0 -> (
          match compare d1 d2 with 0 -> compare e1.ev_seq e2.ev_seq | c -> c)
      | c -> c)
    evs

let clear () =
  List.iter
    (fun b ->
      b.b_len <- 0;
      b.b_spans <- 0;
      b.b_suppress <- 0;
      (* Release whatever the argument thunks and names kept alive. *)
      Array.fill b.b_args 0 b.b_cap no_args;
      Array.fill b.b_name 0 b.b_cap "";
      Array.fill b.b_cat 0 b.b_cap "")
    (buffers_snapshot ())

(* --- spans ---------------------------------------------------------------- *)

type span = No_span | Suppressed | Live of { sp_name : string; sp_cat : string }

let null_span = No_span
let is_live = function Live _ -> true | No_span | Suppressed -> false

(* Content-keyed on (seed, name, per-domain span ordinal): a serial run
   replays the same keep/drop decisions under the same seed. *)
let sampled_in b name s =
  if s.s_rate_ppm >= 1_000_000 then true
  else if s.s_rate_ppm <= 0 then false
  else
    let h = Hashtbl.hash (name, b.b_spans) in
    let g = Prng.create (Int64.logxor s.s_seed (Int64.of_int h)) in
    Prng.int g 1_000_000 < s.s_rate_ppm

let start ?(cat = "") ?(sample = false) ?(args = []) ?lazy_args ?ts name =
  if not (recording_on () && cat_enabled cat) then No_span
  else begin
    let b = buffer () in
    if b.b_suppress > 0 then begin
      (* Inside a sampled-out subtree: keep the depth balanced so the
         suppression lifts exactly when the sampled-out root closes. *)
      b.b_suppress <- b.b_suppress + 1;
      Suppressed
    end
    else if sample then begin
      let keep = sampled_in b name (Atomic.get sampling_state) in
      b.b_spans <- b.b_spans + 1;
      if keep then begin
        push b ph_b name cat (thunk_of args lazy_args) (ts_now ts);
        Live { sp_name = name; sp_cat = cat }
      end
      else begin
        b.b_suppress <- 1;
        Suppressed
      end
    end
    else begin
      push b ph_b name cat (thunk_of args lazy_args) (ts_now ts);
      Live { sp_name = name; sp_cat = cat }
    end
  end

let finish ?(args = []) ?lazy_args ?ts sp =
  match sp with
  | No_span -> ()
  | Suppressed ->
      let b = buffer () in
      if b.b_suppress > 0 then b.b_suppress <- b.b_suppress - 1
  | Live { sp_name; sp_cat } ->
      push (buffer ()) ph_e sp_name sp_cat (thunk_of args lazy_args) (ts_now ts)

let with_span ?cat ?sample ?args ?lazy_args name f =
  if not (recording_on ()) then f ()
  else begin
    let sp = start ?cat ?sample ?args ?lazy_args name in
    Fun.protect ~finally:(fun () -> finish sp) f
  end

let instant ?(cat = "") ?(args = []) ?lazy_args ?ts name =
  if recording_on () && cat_enabled cat then
    push (buffer ()) ph_i name cat (thunk_of args lazy_args) (ts_now ts)

(* --- Chrome trace_event export -------------------------------------------- *)

let to_chrome_json () =
  let module J = Dlz_obs.Jsonx in
  let evs = events () in
  let t0 = match evs with [] -> 0L | (_, e) :: _ -> e.ev_ts in
  let us_of ts = Int64.to_float (Int64.sub ts t0) /. 1_000. in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit ~ph ~name ~cat ~ts_us ~dom ~args ~extra =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '{';
    J.write_fields buf [ ("name", J.Str name); ("ph", J.Str ph) ];
    (* [ts] is the one field the codec does not print: microseconds
       with three decimals keep nanosecond resolution at any trace
       length, where nine significant digits would lose it after 1 s. *)
    Printf.bprintf buf ",\"ts\":%.3f," ts_us;
    J.write_fields buf
      ([ ("pid", J.Int 1); ("tid", J.Int dom) ]
      @ (if cat = "" then [] else [ ("cat", J.Str cat) ])
      @ extra
      @
      match args with
      | [] -> []
      | args -> [ ("args", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) args)) ]);
    Buffer.add_char buf '}'
  in
  (* One named track per domain. *)
  let doms = List.sort_uniq compare (List.map fst evs) in
  List.iter
    (fun d ->
      emit ~ph:"M" ~name:"thread_name" ~cat:"" ~ts_us:0. ~dom:d
        ~args:[ ("name", Printf.sprintf "domain %d" d) ]
        ~extra:[])
    doms;
  (* Balance pass: per-domain stacks of open span names.  An [E] whose
     [B] was overwritten in the ring is dropped; a [B] still open at
     the end is closed synthetically at the last timestamp. *)
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack d =
    match Hashtbl.find_opt stacks d with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks d s;
        s
  in
  let last_ts = ref t0 in
  List.iter
    (fun (d, ev) ->
      if Int64.compare ev.ev_ts !last_ts > 0 then last_ts := ev.ev_ts;
      let ts_us = us_of ev.ev_ts in
      match ev.ev_ph with
      | B ->
          (stack d) := ev.ev_name :: !(stack d);
          emit ~ph:"B" ~name:ev.ev_name ~cat:ev.ev_cat ~ts_us ~dom:d
            ~args:ev.ev_args ~extra:[]
      | E -> (
          let s = stack d in
          match !s with
          | top :: rest when String.equal top ev.ev_name ->
              s := rest;
              emit ~ph:"E" ~name:ev.ev_name ~cat:ev.ev_cat ~ts_us ~dom:d
                ~args:ev.ev_args ~extra:[]
          | _ -> (* orphan: its B was lost to a ring overwrite *) ())
      | I ->
          emit ~ph:"i" ~name:ev.ev_name ~cat:ev.ev_cat ~ts_us ~dom:d
            ~args:ev.ev_args
            ~extra:[ ("s", J.Str "t") ])
    evs;
  let end_us = us_of !last_ts in
  Hashtbl.iter
    (fun d s ->
      List.iter
        (fun name ->
          emit ~ph:"E" ~name ~cat:"" ~ts_us:end_us ~dom:d
            ~args:[ ("truncated", "true") ]
            ~extra:[])
        !s)
    stacks;
  Buffer.add_string buf "],";
  J.write_fields buf
    [
      ("displayTimeUnit", J.Str "ms");
      ( "otherData",
        J.Obj [ ("dropped_events", J.Str (string_of_int (dropped ()))) ] );
    ];
  Buffer.add_char buf '}';
  Buffer.contents buf

let export_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_chrome_json ());
      output_char oc '\n')

(* --- latency histograms --------------------------------------------------- *)

module Hist = struct
  (* 8 sub-buckets per power of two of nanoseconds: bucket
     [i] covers [2^(i/8), 2^((i+1)/8)) ns.  36 octaves reach ~69 s;
     the top bucket absorbs anything longer. *)
  let sub_buckets = 8
  let octaves = 36
  let buckets = sub_buckets * octaves

  (* Like the event ring buffers, observations go to domain-local
     shards: an observation is four plain writes to memory only the
     recording domain touches — no lock-prefixed RMW, no cross-domain
     cache-line traffic.  (A first cut used [Atomic.t] counters; three
     atomic adds on cold shared lines cost ~190 ns per observation in
     situ, blowing the overhead budget by themselves.)  Readers sum the
     shards; a domain's in-flight observation may be missed by a
     concurrent read, but anything recorded before a join — the pool
     always joins before reporting — is visible exactly.  All values
     are nanoseconds in an [int]: the top bucket absorbs ~69 s and the
     running total would need ~146 years of observed time to overflow. *)
  type shard = {
    sh_counts : int array;
    mutable sh_count : int;
    mutable sh_total_ns : int;
    mutable sh_max_ns : int;
  }

  type t = {
    h_key : shard Domain.DLS.key;
    h_lock : Mutex.t;  (* guards [h_shards] registration and snapshots *)
    h_shards : shard list ref;
  }

  let create () =
    let lock = Mutex.create () in
    let shards = ref [] in
    let key =
      Domain.DLS.new_key (fun () ->
          let sh =
            {
              sh_counts = Array.make buckets 0;
              sh_count = 0;
              sh_total_ns = 0;
              sh_max_ns = 0;
            }
          in
          Mutex.lock lock;
          shards := sh :: !shards;
          Mutex.unlock lock;
          sh)
    in
    { h_key = key; h_lock = lock; h_shards = shards }

  (* Lower bound (rounded up to the next integer nanosecond) of every
     bucket, precomputed so the observe path costs integer compares
     only — no libm call per observation. *)
  let lower_bounds =
    Array.init buckets (fun i ->
        int_of_float
          (Float.ceil
             (Float.exp2 (float_of_int i /. float_of_int sub_buckets))))

  (* Index of the most significant set bit — the duration's octave. *)
  let msb n =
    let o = ref 0 and n = ref n in
    if !n >= 1 lsl 32 then begin
      o := !o + 32;
      n := !n lsr 32
    end;
    if !n >= 1 lsl 16 then begin
      o := !o + 16;
      n := !n lsr 16
    end;
    if !n >= 1 lsl 8 then begin
      o := !o + 8;
      n := !n lsr 8
    end;
    if !n >= 1 lsl 4 then begin
      o := !o + 4;
      n := !n lsr 4
    end;
    if !n >= 4 then begin
      o := !o + 2;
      n := !n lsr 2
    end;
    if !n >= 2 then incr o;
    !o

  let bucket_of_int ns =
    if ns <= 1 then 0
    else begin
      let o = msb ns in
      if o >= octaves then buckets - 1
      else begin
        (* Largest bucket in this octave whose lower bound is <= ns:
           at most [sub_buckets - 1] compares. *)
        let i = ref (o * sub_buckets) in
        let stop = min (buckets - 1) (((o + 1) * sub_buckets) - 1) in
        while !i < stop && ns >= lower_bounds.(!i + 1) do
          incr i
        done;
        !i
      end
    end

  let bucket_of_ns ns =
    if Int64.compare ns (Int64.of_int max_int) >= 0 then buckets - 1
    else bucket_of_int (Int64.to_int ns)

  let bucket_bounds i =
    if i < 0 || i >= buckets then invalid_arg "Trace.Hist.bucket_bounds";
    let lo =
      if i = 0 then 0.
      else Float.exp2 (float_of_int i /. float_of_int sub_buckets)
    in
    (lo, Float.exp2 (float_of_int (i + 1) /. float_of_int sub_buckets))

  let observe t ns =
    let ns =
      if Int64.compare ns (Int64.of_int max_int) >= 0 then max_int
      else
        let n = Int64.to_int ns in
        if n < 0 then 0 else n
    in
    let sh = Domain.DLS.get t.h_key in
    let b = bucket_of_int ns in
    sh.sh_counts.(b) <- sh.sh_counts.(b) + 1;
    sh.sh_count <- sh.sh_count + 1;
    sh.sh_total_ns <- sh.sh_total_ns + ns;
    if ns > sh.sh_max_ns then sh.sh_max_ns <- ns

  let shards t =
    Mutex.lock t.h_lock;
    let s = !(t.h_shards) in
    Mutex.unlock t.h_lock;
    s

  let count t = List.fold_left (fun a sh -> a + sh.sh_count) 0 (shards t)

  let total_ns t =
    Int64.of_int (List.fold_left (fun a sh -> a + sh.sh_total_ns) 0 (shards t))

  let max_ns t =
    Int64.of_int (List.fold_left (fun a sh -> max a sh.sh_max_ns) 0 (shards t))

  (* One coherent cross-shard snapshot of the bucket counts. *)
  let summed t =
    let a = Array.make buckets 0 in
    List.iter
      (fun sh -> Array.iteri (fun i c -> a.(i) <- a.(i) + c) sh.sh_counts)
      (shards t);
    a

  let percentile t q =
    let counts = summed t in
    let n = Array.fold_left ( + ) 0 counts in
    if n = 0 then 0.
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let cap = Int64.to_float (max_ns t) in
      let rec go i acc =
        if i >= buckets then cap
        else
          let acc = acc + counts.(i) in
          if acc >= rank then
            let lo, hi = bucket_bounds i in
            Float.min (Float.sqrt (Float.max lo 1. *. hi)) cap
          else go (i + 1) acc
      in
      go 0 0
    end

  let merged ts =
    let m = create () in
    let sh = Domain.DLS.get m.h_key in
    List.iter
      (fun t ->
        let counts = summed t in
        Array.iteri (fun i c -> sh.sh_counts.(i) <- sh.sh_counts.(i) + c) counts;
        sh.sh_count <- sh.sh_count + Array.fold_left ( + ) 0 counts;
        sh.sh_total_ns <- sh.sh_total_ns + Int64.to_int (total_ns t);
        sh.sh_max_ns <- max sh.sh_max_ns (Int64.to_int (max_ns t)))
      ts;
    m

  let reset t =
    List.iter
      (fun sh ->
        Array.fill sh.sh_counts 0 buckets 0;
        sh.sh_count <- 0;
        sh.sh_total_ns <- 0;
        sh.sh_max_ns <- 0)
      (shards t)

  (* Exposition snapshot: cumulative counts at per-octave boundaries
     (le = 2^(o+1) - 1 ns, inclusive, matching the integer-ns bucket
     layout), trimmed at the octave holding the observed max — the
     implicit +Inf bucket covers the rest.  Downsampling 288 buckets
     to <= 36 keeps a scrape readable while staying exact at every
     emitted boundary. *)
  let snapshot t =
    let counts = summed t in
    let count = Array.fold_left ( + ) 0 counts in
    let mx = max_ns t in
    let cumulative =
      if count = 0 then []
      else begin
        let last_octave = min (octaves - 1) (bucket_of_ns mx / sub_buckets) in
        let out = ref [] and acc = ref 0 and i = ref 0 in
        for o = 0 to last_octave do
          for _ = 1 to sub_buckets do
            acc := !acc + counts.(!i);
            incr i
          done;
          out :=
            (Int64.sub (Int64.shift_left 1L (o + 1)) 1L, !acc) :: !out
        done;
        List.rev !out
      end
    in
    {
      Dlz_obs.Registry.h_count = count;
      h_sum_ns = total_ns t;
      h_max_ns = mx;
      h_p50_ns = percentile t 0.50;
      h_p99_ns = percentile t 0.99;
      h_buckets = cumulative;
    }

  let family ?group ?labels ?forget ~help name =
    Dlz_obs.Family.make ?group ?labels ?forget ~hide_zero:true ~help ~create
      ~clear:reset
      ~read:(fun h -> Dlz_obs.Registry.Hist (snapshot h))
      name
end

(* The process-wide named histograms: one vic_latency_ns{op=..} family
   in the metrics plane, whose scrape skips empty histograms so it
   shows what actually ran. *)
let group = Dlz_obs.Family.group ()

let latency =
  Hist.family ~group ~labels:[ "op" ]
    ~help:"operation latency histogram (nanoseconds)" "vic_latency_ns"

let () = Dlz_obs.Family.register ~name:"trace" group
let hist name = Dlz_obs.Family.cell latency [ name ]

let observe_ns name ns = if timing_on () then Hist.observe (hist name) ns

let time name f =
  if not (timing_on ()) then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () -> Hist.observe (hist name) (Int64.sub (now_ns ()) t0))
      f
  end

let hist_rows () =
  List.map (fun (op, h) -> (List.hd op, h)) (Dlz_obs.Family.cells latency)

let reset_hists () = Dlz_obs.Family.reset latency
