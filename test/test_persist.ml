(* Tests for the persistent cache snapshot layer (lib/engine/persist.ml)
   and the bulk-analysis mode (lib/driver/bulk.ml).

   The two load-bearing properties:

   - round-trip fidelity: a save → reset → load → re-query sequence
     yields byte-identical results to the cold run, and the re-queries
     are warm hits;
   - refusal safety: a truncated, corrupted, tag-mismatched, empty, or
     missing snapshot (or a chaos strike during the load) degrades to a
     cold start — an [Error] and a Stats reject counter, never an
     exception, never a partially-applied cache.

   Plus the bulk-mode determinism bar: the NDJSON report over a kernel
   tree is byte-identical for any job count, cold or warm.

   The suite honors DLZ_TEST_JOBS (default 4) like test_parallel, and
   runs under @matrix-ci at width 2 and with DLZ_CHAOS set.  Tests that
   assert a load {e succeeds} switch injection off locally (a strike in
   persist.load is a legitimate refusal, which would fail those
   assertions by design, not by bug). *)

module Pool = Dlz_base.Pool
module Poly = Dlz_symbolic.Poly
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Access = Dlz_ir.Access
module F77 = Dlz_frontend.F77_parser
module Pipeline = Dlz_passes.Pipeline
module Workload = Dlz_driver.Workload
module Bulk = Dlz_driver.Bulk
module Engine = Dlz_engine.Engine
module Strategy = Dlz_engine.Strategy
module Query = Dlz_engine.Query
module Stats = Dlz_engine.Stats
module Persist = Dlz_engine.Persist
module Chaos = Dlz_engine.Chaos
module Jsonx = Dlz_obs.Jsonx

let without_chaos f () =
  let saved = Chaos.current () in
  Chaos.set_current None;
  Fun.protect ~finally:(fun () -> Chaos.set_current saved) f

let prepare src = Pipeline.prepare_program (F77.parse src)

let temp_dir () =
  let d = Filename.temp_file "dlz_persist" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let temp_snap () = Filename.temp_file "dlz_persist" ".snap"

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Statements with many distinct constant distances: plenty of
   distinct, numeric (cacheable) canonical forms. *)
let many_distances_src n =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "      DIMENSION A(500)\n      DO I = 0, 99\n";
  for k = 1 to n do
    Buffer.add_string buf (Printf.sprintf "        A(I+%d) = A(I)\n" k)
  done;
  Buffer.add_string buf "      ENDDO\n";
  Buffer.contents buf

let workload_progs () =
  prepare (many_distances_src 24)
  :: List.map
       (fun (d, e) -> prepare (Workload.family_program ~depth:d ~extent:e))
       [ (1, 8); (2, 8); (3, 6); (2, 10) ]

let all_problems () =
  List.concat_map
    (fun prog ->
      let accs, env = Access.of_program prog in
      List.of_seq
        (Seq.map (fun (pr : Engine.pair) -> (env, pr.Engine.problem))
           (Engine.pairs_seq accs)))
    (workload_progs ())

let query_all ps = List.map (fun (env, p) -> Engine.query ~env p) ps

let result_str (r : Strategy.result) =
  Printf.sprintf "%s|%s|%s|%s"
    (Verdict.to_string r.Strategy.verdict)
    r.Strategy.decided_by
    (String.concat ";" (List.map Dirvec.to_string r.Strategy.dirvecs))
    (String.concat ";"
       (List.map
          (fun (l, p) -> Printf.sprintf "%d:%s" l (Poly.to_string p))
          r.Strategy.distances))

let results_str rs = List.map result_str rs

let check_strings = Alcotest.(check (list string))

(* A counter of the global engine, read through [Stats.samples]. *)
let counter ?labels name =
  Counters.get ?labels (Stats.samples Stats.global) name

(* Cache hits of one temperature, ["warm"] or ["cold"]. *)
let hits temp =
  counter ~labels:[ ("temp", temp) ] "vic_engine_cache_hits_total"

let save_exn ?stats ?cache path =
  match Persist.save ?stats ?cache path with
  | Ok n -> n
  | Error e -> Alcotest.fail ("save failed on a healthy disk: " ^ e)

(* Populate the global cache from a cold run and snapshot it.  Returns
   (problems, cold results, snapshot path, entries saved). *)
let populate_and_save () =
  Engine.reset_metrics ();
  let ps = all_problems () in
  let cold = query_all ps in
  let snap = temp_snap () in
  let saved = save_exn snap in
  (ps, cold, snap, saved)

(* --- round trip ----------------------------------------------------------- *)

let test_round_trip_identical =
  without_chaos @@ fun () ->
  let ps, cold, snap, saved = populate_and_save () in
  Alcotest.(check bool) "entries saved" true (saved > 0);
  Alcotest.(check int) "save counted" 1
    (counter "vic_engine_snapshot_saves_total");
  Engine.reset_metrics ();
  Alcotest.(check int) "cache cleared" 0 (Query.size Query.global_cache);
  (match Persist.load snap with
  | Ok n -> Alcotest.(check int) "loaded = saved" saved n
  | Error e -> Alcotest.fail ("load refused a clean snapshot: " ^ e));
  Alcotest.(check int) "one load" 1
    (counter "vic_engine_snapshot_loads_total");
  Alcotest.(check int) "loaded counter" saved
    (counter "vic_engine_snapshot_loaded_entries_total");
  Alcotest.(check int) "no rejects" 0
    (counter "vic_engine_snapshot_rejects_total");
  let warm = query_all ps in
  check_strings "warm results byte-identical to cold" (results_str cold)
    (results_str warm);
  Alcotest.(check bool) "warm hits recorded" true
    (hits "warm" > 0);
  Alcotest.(check int) "no misses on the warm run" 0
    (Stats.cache_misses Stats.global);
  Alcotest.(check int) "warm + cold hits = hits"
    (Stats.cache_hits Stats.global)
    (hits "warm" + hits "cold");
  Alcotest.(check bool) "stats consistent" true (Stats.consistent Stats.global);
  Sys.remove snap

let test_save_deterministic =
  without_chaos @@ fun () ->
  let _, _, snap1, saved = populate_and_save () in
  let snap2 = temp_snap () in
  let saved2 = save_exn snap2 in
  Alcotest.(check int) "same entry count" saved saved2;
  Alcotest.(check string) "double save byte-identical" (read_file snap1)
    (read_file snap2);
  (* Save → reset → load → save: the cache contents round-trip, so the
     third file must equal the first two bytewise as well. *)
  Engine.reset_metrics ();
  (match Persist.load snap1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let snap3 = temp_snap () in
  ignore (save_exn snap3);
  Alcotest.(check string) "save-load-save byte-identical" (read_file snap1)
    (read_file snap3);
  List.iter Sys.remove [ snap1; snap2; snap3 ]

let test_parallel_load_matches_serial =
  without_chaos @@ fun () ->
  let _, _, snap, saved = populate_and_save () in
  let load_into pool =
    let cache = Query.create_cache () in
    (match Persist.load ~cache ?pool snap with
    | Ok n -> Alcotest.(check int) "all entries admitted" saved n
    | Error e -> Alcotest.fail e);
    List.map (fun (k, r) -> k ^ "=" ^ result_str r) (Query.dump cache)
  in
  let serial = load_into None in
  let parallel =
    Pool.with_pool ~domains:Width.jobs (fun pool -> load_into (Some pool))
  in
  check_strings "parallel shard load = serial load" serial parallel;
  Sys.remove snap

(* Levels and constants at the varint length steps and the int
   range's ends survive a save and a load. *)
let test_extreme_distances_round_trip =
  without_chaos @@ fun () ->
  let extremes =
    [ 0; 1; -1; 63; -63; 64; -64; 8191; -8191; 8192; -8192; max_int; min_int ]
  in
  let r =
    { Strategy.verdict = Verdict.Dependent;
      dirvecs = [ [| Dirvec.Lt; Dirvec.Star |] ];
      distances = List.map (fun v -> (v, Poly.const v)) extremes;
      decided_by = "delinearize"; degraded = [] }
  in
  let cache = Query.create_cache () in
  Alcotest.(check int) "entry inserted" 1
    (Query.load_entries cache [| ("delin\x00extremes", r) |]);
  let snap = temp_snap () in
  Alcotest.(check (result int string)) "saved" (Ok 1)
    (Persist.save ~cache snap);
  let loaded = Query.create_cache () in
  Alcotest.(check (result int string)) "loaded" (Ok 1)
    (Persist.load ~cache:loaded snap);
  check_strings "entry round-trips"
    [ "delin\x00extremes=" ^ result_str r ]
    (List.map (fun (k, r) -> k ^ "=" ^ result_str r) (Query.dump loaded));
  Sys.remove snap

let test_capacity_bounded_load =
  without_chaos @@ fun () ->
  let _, _, snap, saved = populate_and_save () in
  Alcotest.(check bool) "workload overflows the small cache" true (saved > 8);
  let cache = Query.create_cache ~capacity:8 ~shards:2 () in
  (match Persist.load ~cache snap with
  | Ok n ->
      Alcotest.(check bool) "admitted within capacity" true (n <= 8 && n > 0);
      Alcotest.(check int) "size = admitted" n (Query.size cache)
  | Error e -> Alcotest.fail e);
  Sys.remove snap

(* --- refusal paths --------------------------------------------------------- *)

(* Every corruption must produce [Error], bump the reject counter, touch
   nothing in the cache, and leave the engine able to answer queries. *)
let check_refused ~name ?reason path =
  let before_rejects = counter "vic_engine_snapshot_rejects_total" in
  let before_size = Query.size Query.global_cache in
  (match Persist.load path with
  | Error got ->
      Option.iter
        (fun want -> Alcotest.(check string) (name ^ ": reason") want got)
        reason
  | Ok n ->
      Alcotest.failf "%s: load accepted a corrupt snapshot (%d entries)" name
        n);
  Alcotest.(check int)
    (name ^ ": reject counted")
    (before_rejects + 1)
    (counter "vic_engine_snapshot_rejects_total");
  Alcotest.(check int)
    (name ^ ": cache untouched")
    before_size
    (Query.size Query.global_cache)

let test_corrupt_snapshots_refused =
  without_chaos @@ fun () ->
  let _, _, snap, _ = populate_and_save () in
  let bytes = read_file snap in
  Engine.reset_metrics ();
  let variant name mutate =
    let path = temp_snap () in
    write_file path (mutate bytes);
    check_refused ~name path;
    Sys.remove path
  in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
    Bytes.to_string b
  in
  variant "empty file" (fun _ -> "");
  variant "truncated header" (fun s -> String.sub s 0 10);
  variant "header only" (fun s -> String.sub s 0 40);
  variant "truncated payload" (fun s -> String.sub s 0 (String.length s - 1));
  variant "trailing garbage" (fun s -> s ^ "x");
  variant "bad magic" (fun s -> flip s 0);
  variant "wrong strategy-set hash" (fun s -> flip s 8);
  variant "flipped payload byte" (fun s -> flip s (String.length s - 1));
  variant "garbage" (fun _ -> String.make 200 '\xff');
  (* Missing file: same refusal contract, no exception. *)
  let missing = temp_snap () in
  Sys.remove missing;
  check_refused ~name:"missing file" missing;
  (* The engine still answers after nine refusals. *)
  let ps = all_problems () in
  Alcotest.(check bool) "queries fine after refusals" true
    (query_all ps <> []);
  Alcotest.(check bool) "stats consistent" true (Stats.consistent Stats.global);
  Sys.remove snap

(* A snapshot file built by hand: [magic], then the four fixed-width
   header fields around [payload], its checksum valid. *)
let le8 v = String.init 8 (fun i -> Char.chr ((v asr (8 * i)) land 0xff))

let snapshot_file ~magic ~tag ~count payload =
  magic ^ le8 tag ^ le8 count
  ^ le8 (String.length payload)
  ^ le8 (Query.hash_of_key payload)
  ^ payload

let check_refused_file ~name ?reason contents =
  let path = temp_snap () in
  write_file path contents;
  check_refused ~name ?reason path;
  Sys.remove path

(* A well-formed version-1 file (8-byte payload ints): one entry, under
   the version-1 magic and tag. *)
let test_v1_snapshot_refused =
  without_chaos @@ fun () ->
  let _, _, snap, _ = populate_and_save () in
  Alcotest.(check string) "a save writes the version-2 magic" "DLZSNAP\x02"
    (String.sub (read_file snap) 0 8);
  Sys.remove snap;
  Alcotest.(check bool) "cache populated" true
    (Query.size Query.global_cache > 0);
  let v1_tag =
    Query.hash_of_key
      (Printf.sprintf "dlz-snapshot|v1|%s"
         (String.concat ","
            (List.sort compare (Dlz_engine.Registry.names ()))))
  in
  let str s = le8 (String.length s) ^ s in
  let entry =
    str "delin\x00key" ^ "\001" ^ str "delinearize" ^ le8 1 ^ le8 1
    ^ "\006" ^ le8 0
  in
  check_refused_file ~name:"version-1 file" ~reason:"bad magic"
    (snapshot_file ~magic:"DLZSNAP\x01" ~tag:v1_tag ~count:1 entry);
  check_refused_file ~name:"version-1 tag under the new magic"
    (snapshot_file ~magic:"DLZSNAP\x02" ~tag:v1_tag ~count:1 entry)

(* A checksum-valid payload that ends inside a varint, or holds one
   longer than nine bytes: a refusal with the varint's reason. *)
let test_malformed_varint_refused =
  without_chaos @@ fun () ->
  let _, _, snap, _ = populate_and_save () in
  Sys.remove snap;
  let file = snapshot_file ~magic:"DLZSNAP\x02" ~tag:(Persist.tag ()) ~count:1 in
  check_refused_file ~name:"key length cut" ~reason:"truncated varint"
    (file "\x80");
  check_refused_file ~name:"ten-byte key length" ~reason:"over-long varint"
    (file (String.make 9 '\xff' ^ "\x00"));
  (* A whole entry but the last byte of its last distance (zigzag: 4
     encodes a length of 2, 2 a count of 1). *)
  let entry =
    "\x04ky" ^ "\001" ^ "\x04dz" ^ "\x00" ^ "\x02\x00"
    ^ String.make 8 '\xfe'
  in
  check_refused_file ~name:"distance cut" ~reason:"truncated varint"
    (file entry)

let test_chaos_strike_during_load =
  without_chaos @@ fun () ->
  let _, _, snap, _ = populate_and_save () in
  Engine.reset_metrics ();
  (* Rate 1.0 guarantees the content-keyed gate fires on persist.load:
     the strike must surface as a refusal (cold start), not an
     exception. *)
  Chaos.set_current (Some (Chaos.make ~seed:7L ~rate:1.0));
  (match Persist.load snap with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "chaos strike did not refuse the load");
  Alcotest.(check int) "reject counted" 1
    (counter "vic_engine_snapshot_rejects_total");
  Alcotest.(check int) "cache cold" 0 (Query.size Query.global_cache);
  Chaos.set_current None;
  (* Injection off again: the same file loads fine. *)
  (match Persist.load snap with
  | Ok n -> Alcotest.(check bool) "loads after the strike" true (n > 0)
  | Error e -> Alcotest.fail e);
  Sys.remove snap

let test_reset_clears_snapshot_counters =
  without_chaos @@ fun () ->
  let _, _, snap, _ = populate_and_save () in
  Engine.reset_metrics ();
  (match Persist.load snap with Ok _ -> () | Error e -> Alcotest.fail e);
  check_refused ~name:"pre-reset reject"
    (let p = temp_snap () in
     write_file p "junk";
     p);
  ignore (query_all (all_problems ()));
  Alcotest.(check bool) "counters nonzero before reset" true
    (counter "vic_engine_snapshot_loads_total" > 0
    && counter "vic_engine_snapshot_loaded_entries_total" > 0
    && counter "vic_engine_snapshot_rejects_total" > 0
    && hits "warm" > 0);
  Engine.reset_metrics ();
  Alcotest.(check int) "loads cleared" 0
    (counter "vic_engine_snapshot_loads_total");
  Alcotest.(check int) "loaded cleared" 0
    (counter "vic_engine_snapshot_loaded_entries_total");
  Alcotest.(check int) "rejects cleared" 0
    (counter "vic_engine_snapshot_rejects_total");
  Alcotest.(check int) "saves cleared" 0
    (counter "vic_engine_snapshot_saves_total");
  Alcotest.(check int) "warm hits cleared" 0 (hits "warm");
  Sys.remove snap

let test_tag_sensitivity =
  without_chaos @@ fun () ->
  (* The tag is a pure function of the registered strategy set, and the
     default path embeds it: two calls agree, and the magic embeds the
     format version. *)
  Alcotest.(check int) "tag stable" (Persist.tag ()) (Persist.tag ());
  let p = Persist.default_path () in
  Alcotest.(check bool) "default path names format version 2" true
    (String.starts_with ~prefix:"cache-v2-" (Filename.basename p));
  Alcotest.(check bool) "default path embeds the tag" true
    (String.length p > 0
    && String.ends_with ~suffix:".snap" p
    &&
    let frag = Printf.sprintf "%x" (Persist.tag ()) in
    let rec contains i =
      i + String.length frag <= String.length p
      && (String.sub p i (String.length frag) = frag || contains (i + 1))
    in
    contains 0)

(* --- bulk mode ------------------------------------------------------------- *)

let make_kernel_tree () =
  let dir = temp_dir () in
  Sys.mkdir (Filename.concat dir "sub") 0o755;
  let n = ref 0 in
  List.iter
    (fun (depth, extent) ->
      incr n;
      let rel =
        if !n mod 2 = 0 then Printf.sprintf "sub/k%02d.f" !n
        else Printf.sprintf "k%02d.f" !n
      in
      write_file (Filename.concat dir rel)
        (Workload.family_program ~depth ~extent))
    (List.concat_map
       (fun depth -> List.map (fun e -> (depth, e)) [ 6; 8; 10; 12 ])
       [ 1; 2; 3; 4; 5 ]);
  write_file (Filename.concat dir "bad.f") "this is not fortran\n";
  dir

let test_bulk_deterministic_across_jobs () =
  let dir = make_kernel_tree () in
  Alcotest.(check bool) "tree has at least 20 kernels" true
    (List.length (Bulk.kernels dir) >= 20);
  Engine.reset_metrics ();
  let serial = Bulk.run dir in
  let at_jobs n =
    Pool.with_pool ~domains:n (fun pool -> Bulk.run ~pool dir)
  in
  check_strings "jobs 1 = serial rerun" serial (Bulk.run dir);
  check_strings
    (Printf.sprintf "jobs %d byte-identical" Width.jobs)
    serial (at_jobs Width.jobs);
  check_strings "jobs 8 byte-identical" serial (at_jobs 8);
  (* The parse failure is contained in its own line and counted once in
     the summary; every other kernel analyzed. *)
  Alcotest.(check int) "one error line" 1
    (List.length
       (List.filter
          (fun l ->
            String.length l >= 11
            && String.sub l 0 7 = "{\"file\""
            &&
            let rec has i =
              i + 11 <= String.length l
              && (String.sub l i 11 = "\"ok\":false," || has (i + 1))
            in
            has 0)
          serial));
  Alcotest.(check bool) "summary reports the error" true
    (match List.rev serial with
    | summary :: _ ->
        let frag = "\"errors\":1" in
        let rec has i =
          i + String.length frag <= String.length summary
          && (String.sub summary i (String.length frag) = frag || has (i + 1))
        in
        has 0
    | [] -> false)

let test_bulk_warm_equals_cold () =
  let dir = make_kernel_tree () in
  Engine.reset_metrics ();
  let cold = Bulk.run dir in
  let snap = temp_snap () in
  ignore (Persist.save snap);
  Engine.reset_metrics ();
  (* Whether the load succeeds or a chaos strike refuses it, the
     deterministic report fields must not move. *)
  ignore (Persist.load snap);
  let warm = Bulk.run dir in
  check_strings "warm report = cold report" cold warm;
  Sys.remove snap

(* --- save-path containment (full disk, chaos) ----------------------------- *)

(* A chaos strike inside [save] stands in for every mid-write fault
   (full disk, quota, yanked volume): the result must be an [Error], a
   counted failure, no partial file, and no [.tmp] litter — and a
   pre-existing snapshot at the path must survive untouched. *)
let test_save_chaos_no_partial_file =
  without_chaos @@ fun () ->
  Engine.reset_metrics ();
  ignore (query_all (all_problems ()));
  let snap = temp_snap () in
  let old = save_exn snap in
  Alcotest.(check bool) "seed snapshot non-empty" true (old > 0);
  let before = read_file snap in
  let saved = Chaos.current () in
  Chaos.set_current (Some (Chaos.make ~seed:7L ~rate:1.0));
  let r = Persist.save snap in
  Chaos.set_current saved;
  (match r with
  | Error _ -> ()
  | Ok n -> Alcotest.failf "save succeeded (%d entries) under rate-1 chaos" n);
  Alcotest.(check bool)
    "no .tmp litter" false
    (Sys.file_exists (snap ^ ".tmp"));
  Alcotest.(check string)
    "pre-existing snapshot untouched" before (read_file snap);
  Alcotest.(check int)
    "failure counted" 1
    (counter "vic_engine_snapshot_save_fails_total");
  Alcotest.(check int)
    "no save counted" 1
    (counter "vic_engine_snapshot_saves_total");
  Sys.remove snap

let test_save_unwritable_path_is_error =
  without_chaos @@ fun () ->
  Engine.reset_metrics ();
  ignore (query_all (all_problems ()));
  (* A regular file where a directory component should be: the open
     fails with ENOTDIR no matter who runs the test (a read-only
     directory would not stop root), standing in for any unwritable
     target. *)
  let blocker = Filename.temp_file "dlz_persist" ".notadir" in
  let path = Filename.concat blocker "sub/cache.snap" in
  (match Persist.save path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "save through a non-directory should fail");
  Alcotest.(check bool) "no file created" false (Sys.file_exists path);
  Alcotest.(check int)
    "failure counted" 1
    (counter "vic_engine_snapshot_save_fails_total");
  Sys.remove blocker

(* --- bulk edge cases ------------------------------------------------------ *)

let test_bulk_empty_dir () =
  let dir = temp_dir () in
  let lines = Bulk.run dir in
  (match lines with
  | [ summary ] ->
      Alcotest.(check bool)
        "summary reports zero files" true
        (let frag = "\"files\":0" in
         let rec has i =
           i + String.length frag <= String.length summary
           && (String.sub summary i (String.length frag) = frag || has (i + 1))
         in
         has 0)
  | _ ->
      Alcotest.failf "expected exactly one summary line, got %d"
        (List.length lines));
  check_strings "byte-identical across jobs" lines
    (Pool.with_pool ~domains:Width.jobs (fun pool -> Bulk.run ~pool dir))

let test_bulk_unreadable_file () =
  let dir = make_kernel_tree () in
  (* A dangling symlink: the open fails at read time, not at walk
     time — the io fault must be contained in that kernel's own
     ok:false line, deterministically, at any width. *)
  Unix.symlink (Filename.concat dir "does-not-exist") (Filename.concat dir "aa_gone.f");
  Engine.reset_metrics ();
  let serial = Bulk.run dir in
  let io_lines =
    List.filter
      (fun l ->
        let frag = "\"error\":\"io: " in
        let rec has i =
          i + String.length frag <= String.length l
          && (String.sub l i (String.length frag) = frag || has (i + 1))
        in
        has 0)
      serial
  in
  Alcotest.(check int) "exactly one io error line" 1 (List.length io_lines);
  check_strings "byte-identical across jobs" serial
    (Pool.with_pool ~domains:Width.jobs (fun pool -> Bulk.run ~pool dir));
  check_strings "byte-identical at width 8" serial
    (Pool.with_pool ~domains:8 (fun pool -> Bulk.run ~pool dir))

(* A warm run: the cache block must read the registry's counters, so
   --timings and a metrics scrape cannot disagree.  Under chaos the
   load may be refused; the fields must match the counters either way. *)
let test_bulk_timings_fields () =
  let dir = make_kernel_tree () in
  Engine.reset_metrics ();
  ignore (Bulk.run dir);
  let snap = temp_snap () in
  ignore (Persist.save snap);
  Engine.reset_metrics ();
  let loaded = Result.is_ok (Persist.load snap) in
  Sys.remove snap;
  let lines = Bulk.run ~timings:true dir in
  let registry = Dlz_obs.Registry.collect () in
  let has_frag frag l =
    let rec go i =
      i + String.length frag <= String.length l
      && (String.sub l i (String.length frag) = frag || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "every line carries elapsed_ns" true
    (List.for_all (has_frag "\"elapsed_ns\":") lines);
  let summary =
    match Option.map Jsonx.parse (List.nth_opt (List.rev lines) 0) with
    | Some (Ok j) -> j
    | _ -> Alcotest.fail "no summary line"
  in
  let field path =
    Option.bind
      (List.fold_left
         (fun j k -> Option.bind j (Jsonx.member k))
         (Some summary) path)
      Jsonx.to_int
  in
  List.iter
    (fun (key, labels, name) ->
      Alcotest.(check (option int))
        ("cache." ^ key ^ " = " ^ name)
        (Some (Counters.get ~labels registry name))
        (field [ "cache"; key ]))
    [ ("queries", [], "vic_engine_queries_total");
      ("warm_hits", [ ("temp", "warm") ], "vic_engine_cache_hits_total");
      ("cold_hits", [ ("temp", "cold") ], "vic_engine_cache_hits_total");
      ("misses", [], "vic_engine_cache_misses_total");
      ("snapshot_loaded", [], "vic_engine_snapshot_loaded_entries_total");
      ("snapshot_loads", [], "vic_engine_snapshot_loads_total");
      ("snapshot_rejects", [], "vic_engine_snapshot_rejects_total") ];
  Alcotest.(check (option int)) "hits = warm_hits + cold_hits"
    (Option.bind (field [ "cache"; "warm_hits" ]) (fun w ->
         Option.map (( + ) w) (field [ "cache"; "cold_hits" ])))
    (field [ "cache"; "hits" ]);
  if loaded then
    Alcotest.(check bool) "a loaded snapshot serves warm hits" true
      (Option.value ~default:0 (field [ "cache"; "warm_hits" ]) > 0);
  (* Counts, dep rows and the loop report read one query pass. *)
  Alcotest.(check (option int)) "one query per pair" (field [ "pairs" ])
    (field [ "cache"; "queries" ])

let () =
  Alcotest.run "persist"
    [
      ( "round-trip",
        [
          Alcotest.test_case "save/load/query byte-identical" `Quick
            test_round_trip_identical;
          Alcotest.test_case "saves byte-deterministic" `Quick
            test_save_deterministic;
          Alcotest.test_case "parallel load = serial load" `Quick
            test_parallel_load_matches_serial;
          Alcotest.test_case "capacity-bounded load" `Quick
            test_capacity_bounded_load;
          Alcotest.test_case "extreme distances round-trip" `Quick
            test_extreme_distances_round_trip;
        ] );
      ( "refusal",
        [
          Alcotest.test_case "corrupt snapshots refused, never raise" `Quick
            test_corrupt_snapshots_refused;
          Alcotest.test_case "version-1 snapshot refused" `Quick
            test_v1_snapshot_refused;
          Alcotest.test_case "malformed varint refused, never raises" `Quick
            test_malformed_varint_refused;
          Alcotest.test_case "chaos strike during load = cold start" `Quick
            test_chaos_strike_during_load;
          Alcotest.test_case "reset_metrics clears snapshot counters" `Quick
            test_reset_clears_snapshot_counters;
          Alcotest.test_case "tag and default path" `Quick
            test_tag_sensitivity;
          Alcotest.test_case "chaos strike during save = no partial file"
            `Quick test_save_chaos_no_partial_file;
          Alcotest.test_case "unwritable save path = error, not a crash"
            `Quick test_save_unwritable_path_is_error;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "report byte-identical across jobs" `Quick
            test_bulk_deterministic_across_jobs;
          Alcotest.test_case "warm report = cold report" `Quick
            test_bulk_warm_equals_cold;
          Alcotest.test_case "timings fields" `Quick test_bulk_timings_fields;
          Alcotest.test_case "empty directory = clean zero summary" `Quick
            test_bulk_empty_dir;
          Alcotest.test_case "unreadable kernel contained in its line" `Quick
            test_bulk_unreadable_file;
        ] );
    ]
