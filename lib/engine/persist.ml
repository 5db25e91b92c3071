module Trace = Dlz_base.Trace
module Pool = Dlz_base.Pool
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Problem = Dlz_deptest.Problem
module Poly = Dlz_symbolic.Poly

(* Bumped on any change to the binary layout or to the meaning of a
   cached result; old files are then refused by the [tag] check. *)
let format_version = 1

(* Eight bytes: seven of name, one of format version.  A file whose
   first bytes differ is not a snapshot at all (as opposed to a
   snapshot for the wrong strategy set, which fails the tag check). *)
let magic = "DLZSNAP" ^ String.make 1 (Char.chr format_version)

let djb2 s =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h) lxor Char.code c) s;
  !h land max_int

let tag () =
  let names = List.sort compare (Registry.names ()) in
  djb2
    (Printf.sprintf "dlz-snapshot|v%d|%s" format_version
       (String.concat "," names))

let default_path () =
  let dir =
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "vic"
    | _ -> (
        match Sys.getenv_opt "HOME" with
        | Some h when h <> "" ->
            Filename.concat (Filename.concat h ".cache") "vic"
        | _ -> Filename.concat (Filename.get_temp_dir_name ()) "vic-cache")
  in
  Filename.concat dir (Printf.sprintf "cache-v%d-%x.snap" format_version (tag ()))

(* {2 Wire format}

   header (40 bytes):
     magic (8) | tag (8, LE) | entry count (8, LE)
     | payload length (8, LE) | payload djb2 (8, LE)
   payload, per entry:
     key (len LE8 + bytes, the materialized {!Query.key_of} form)
     | verdict (1 byte) | decided_by (len LE8 + bytes)
     | dirvec count LE8, each: length LE8 + one byte per direction
     | distance count LE8, each: level LE8 + constant LE8

   All integers are 8-byte little-endian native ints (two's complement
   of the 63-bit value, high byte sign-extended), same convention as
   [Problem.Keybuf]. *)

let put_i64 b v =
  for i = 0 to 7 do
    Buffer.add_char b (Char.chr ((v asr (8 * i)) land 0xff))
  done

let put_str b s =
  put_i64 b (String.length s);
  Buffer.add_string b s

let dir_byte : Dirvec.dir -> char = function
  | Lt -> '\000'
  | Eq -> '\001'
  | Gt -> '\002'
  | Le -> '\003'
  | Ge -> '\004'
  | Ne -> '\005'
  | Star -> '\006'

exception Malformed of string

let bad fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let dir_of_byte = function
  | '\000' -> Dirvec.Lt
  | '\001' -> Dirvec.Eq
  | '\002' -> Dirvec.Gt
  | '\003' -> Dirvec.Le
  | '\004' -> Dirvec.Ge
  | '\005' -> Dirvec.Ne
  | '\006' -> Dirvec.Star
  | c -> bad "invalid direction byte %d" (Char.code c)

let verdict_byte : Verdict.t -> char = function
  | Independent -> '\000'
  | Dependent -> '\001'
  | Inapplicable -> '\002'

let verdict_of_byte = function
  | '\000' -> Verdict.Independent
  | '\001' -> Verdict.Dependent
  | '\002' -> Verdict.Inapplicable
  | c -> bad "invalid verdict byte %d" (Char.code c)

(* An entry is encodable when every distance is a constant polynomial
   and the result is clean.  Both hold for everything the cache admits;
   checking keeps the format honest if that ever changes. *)
let encodable (r : Strategy.result) =
  r.degraded = []
  && List.for_all (fun (_, p) -> Poly.to_const p <> None) r.distances

let encode_entry b key (r : Strategy.result) =
  put_str b key;
  Buffer.add_char b (verdict_byte r.verdict);
  put_str b r.decided_by;
  put_i64 b (List.length r.dirvecs);
  List.iter
    (fun dv ->
      put_i64 b (Array.length dv);
      Array.iter (fun d -> Buffer.add_char b (dir_byte d)) dv)
    r.dirvecs;
  put_i64 b (List.length r.distances);
  List.iter
    (fun (lvl, p) ->
      put_i64 b lvl;
      put_i64 b (match Poly.to_const p with Some c -> c | None -> 0))
    r.distances

(* {2 Decoding} *)

type reader = { data : string; limit : int; mutable pos : int }

let need r n =
  if n < 0 || r.limit - r.pos < n then bad "truncated payload"

let get_i64 r =
  need r 8;
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code r.data.[r.pos + i]
  done;
  r.pos <- r.pos + 8;
  !v

let get_byte r =
  need r 1;
  let c = r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_str r =
  let n = get_i64 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_count r what =
  let n = get_i64 r in
  (* Each counted item costs at least one payload byte, so a count
     beyond the remaining bytes is a lie, not just big. *)
  if n < 0 || n > r.limit - r.pos then bad "implausible %s count %d" what n;
  n

let decode_entry r =
  let key = get_str r in
  let verdict = verdict_of_byte (get_byte r) in
  let decided_by = get_str r in
  let ndv = get_count r "dirvec" in
  let dirvecs =
    List.init ndv (fun _ ->
        let len = get_count r "direction" in
        Array.init len (fun _ -> dir_of_byte (get_byte r)))
  in
  let nd = get_count r "distance" in
  let distances =
    List.init nd (fun _ ->
        let lvl = get_i64 r in
        let c = get_i64 r in
        (lvl, Poly.const c))
  in
  (key, { Strategy.verdict; dirvecs; distances; decided_by; degraded = [] })

let read_i64_at data off =
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code data.[off + i]
  done;
  !v

let decode data =
  let len = String.length data in
  if len < 40 then bad "truncated header (%d bytes)" len;
  if String.sub data 0 8 <> magic then bad "bad magic";
  let file_tag = read_i64_at data 8 in
  let here = tag () in
  if file_tag <> here then
    bad "strategy-set hash mismatch (file %x, engine %x)" file_tag here;
  let count = read_i64_at data 16 in
  let payload_len = read_i64_at data 24 in
  let checksum = read_i64_at data 32 in
  if payload_len < 0 || len - 40 < payload_len then bad "truncated payload";
  if len - 40 > payload_len then bad "trailing garbage";
  let payload = String.sub data 40 payload_len in
  if djb2 payload <> checksum then bad "checksum mismatch";
  if count < 0 || count > payload_len then bad "implausible entry count %d" count;
  let r = { data = payload; limit = payload_len; pos = 0 } in
  let entries = Array.init count (fun _ -> decode_entry r) in
  if r.pos <> r.limit then bad "trailing bytes after last entry";
  entries

(* {2 Entry points} *)

let rec mkdirs d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let trivial_problem =
  lazy
    (Problem.synthetic
       { Problem.n_common = 0; common_ubs = [||]; eqs = []; opaque_dims = 0 })

let save ?(stats = Stats.global) ?(cache = Query.global_cache) path =
  Trace.with_span ~cat:"persist" ~args:[ ("path", path) ] "snapshot.save"
    (fun () ->
      let tmp = path ^ ".tmp" in
      let outcome =
        try
          let entries = Query.dump cache in
          let payload = Buffer.create (64 * (1 + List.length entries)) in
          let count =
            List.fold_left
              (fun n (key, r) ->
                if encodable r then (
                  encode_entry payload key r;
                  n + 1)
                else n)
              0 entries
          in
          let payload = Buffer.contents payload in
          let header = Buffer.create 40 in
          Buffer.add_string header magic;
          put_i64 header (tag ());
          put_i64 header count;
          put_i64 header (String.length payload);
          put_i64 header (djb2 payload);
          mkdirs (Filename.dirname path);
          Out_channel.with_open_bin tmp (fun oc ->
              Out_channel.output_string oc (Buffer.contents header);
              Out_channel.output_string oc payload;
              (* Strike after the bytes are down but before the rename:
                 the worst possible moment — a fault here must still
                 leave either the old file or nothing at [path], and no
                 [.tmp] litter.  Same containment contract as the load
                 boundary. *)
              match Chaos.current () with
              | Some c ->
                  Chaos.strike c ~strategy:"persist.save"
                    (Lazy.force trivial_problem)
              | None -> ());
          Sys.rename tmp path;
          Ok count
        with e ->
          (try if Sys.file_exists tmp then Sys.remove tmp with Sys_error _ -> ());
          (match e with
          | Sys_error m -> Error m
          | Out_of_memory -> Error "out of memory"
          | e -> Error (Printexc.to_string e))
      in
      match outcome with
      | Ok n ->
          Stats.record_snapshot_save stats;
          Ok n
      | Error _ as e ->
          Stats.record_snapshot_save_fail stats;
          e)

let load ?(stats = Stats.global) ?(cache = Query.global_cache) ?pool path =
  Trace.with_span ~cat:"persist" ~args:[ ("path", path) ] "snapshot.load"
    (fun () ->
      let outcome =
        try
          (* The same containment contract as a strategy boundary: a
             chaos strike here must degrade to a cold start, never
             crash the run. *)
          (match Chaos.current () with
          | Some c ->
              Chaos.strike c ~strategy:"persist.load" (Lazy.force trivial_problem)
          | None -> ());
          let data = In_channel.with_open_bin path In_channel.input_all in
          Ok (Query.load_entries ?pool cache (decode data))
        with
        | Malformed m -> Error m
        | Sys_error m -> Error m
        | e -> Error (Printexc.to_string e)
      in
      match outcome with
      | Ok n ->
          Stats.record_snapshot_load stats;
          Stats.record_snapshot_loaded stats n;
          Ok n
      | Error _ as e ->
          Stats.record_snapshot_reject stats;
          e)
