(* @corpus-ci gate for the vendored polybench corpus.

   Three checks over corpus/polybench/ (passed as argv.(1)):

   1. drift: every vendored .c file byte-matches the
      {!Dlz_corpus.Polybench} generator, and no stale extras exist —
      the committed corpus IS the generator's output;
   2. parse: every kernel goes through the mini-C parser, the pointer
      conversion and the pipeline without error;
   3. report: the bulk NDJSON report (at DLZ_TEST_JOBS-width, with
      whatever DLZ_CHAOS the alias sets) is byte-identical to the
      committed golden named by argv.(2), modulo the summary line's
      "dir" field which is normalized to the canonical
      "corpus/polybench" so the golden does not depend on where the
      tree was checked out.

   `corpus_ci.exe DIR GOLDEN --write` regenerates that golden (run it
   with the same DLZ_TEST_JOBS/DLZ_CHAOS the dune rule uses). *)

module Polybench = Dlz_corpus.Polybench
module Bulk = Dlz_driver.Bulk
module Pool = Dlz_base.Pool

let canonical_dir = "corpus/polybench"

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Replace the first occurrence of [sub] in [s] with [by]. *)
let replace_first ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
      String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let normalize ~dir line =
  let dir_field d = "\"dir\":" ^ Dlz_obs.Jsonx.(to_string (Str d)) in
  if String.length line > 16 && String.sub line 0 16 = "{\"summary\":true," then
    replace_first ~sub:(dir_field dir) ~by:(dir_field canonical_dir) line
  else line

let check_drift dir =
  List.iter
    (fun (k : Polybench.kernel) ->
      let path = Filename.concat dir (k.k_name ^ ".c") in
      let vendored =
        try read_file path
        with Sys_error m -> fail "corpus-ci: missing vendored kernel: %s" m
      in
      if not (String.equal vendored k.k_source) then
        fail
          "corpus-ci: %s drifted from the generator — regenerate with `vic \
           corpus --polybench %s`"
          path dir)
    Polybench.kernels;
  let expected =
    List.map (fun (k : Polybench.kernel) -> k.k_name ^ ".c") Polybench.kernels
  in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".c" && not (List.mem name expected) then
        fail "corpus-ci: stale vendored file not in the generator: %s" name)
    (Sys.readdir dir)

let check_parse () =
  List.iter
    (fun (k : Polybench.kernel) ->
      match
        Dlz_passes.Pipeline.prepare_program
          (Dlz_passes.Pointers.lower
             (Dlz_frontend.C_parser.parse k.k_source))
      with
      | (_ : Dlz_ir.Ast.program) -> ()
      | exception e ->
          fail "corpus-ci: %s does not parse/lower: %s" k.k_name
            (match Dlz_frontend.Diag.describe e with
            | Some m -> m
            | None -> Printexc.to_string e))
    Polybench.kernels

let report ~jobs dir =
  let lines =
    Pool.with_jobs ~jobs (fun pool -> Bulk.run ?pool dir)
  in
  List.map (normalize ~dir) lines

let () =
  let dir, golden_name, write =
    match Array.to_list Sys.argv with
    | [ _; dir; golden ] -> (dir, golden, false)
    | [ _; dir; golden; "--write" ] -> (dir, golden, true)
    | _ ->
        prerr_endline "usage: corpus_ci.exe DIR GOLDEN [--write]";
        exit 2
  in
  let jobs =
    match Sys.getenv_opt "DLZ_TEST_JOBS" with
    | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2)
    | None -> 2
  in
  check_drift dir;
  check_parse ();
  let lines = report ~jobs dir in
  let golden_path = Filename.concat dir golden_name in
  if write then begin
    let oc = open_out_bin golden_path in
    List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
    close_out oc;
    Printf.printf "corpus-ci: wrote %s (%d lines)\n" golden_path
      (List.length lines)
  end
  else begin
    let golden =
      try String.split_on_char '\n' (read_file golden_path)
      with Sys_error m -> fail "corpus-ci: missing golden: %s" m
    in
    let golden = List.filter (fun l -> l <> "") golden in
    let rec diff i = function
      | [], [] -> ()
      | g :: gs, l :: ls when String.equal g l -> diff (i + 1) (gs, ls)
      | g :: _, l :: _ ->
          Printf.eprintf "corpus-ci: line %d differs\n  golden: %s\n  got:    %s\n"
            (i + 1) g l;
          fail "corpus-ci: NDJSON report diverged from %s" golden_path
      | g :: _, [] -> fail "corpus-ci: report truncated at line %d (golden: %s)" (i + 1) g
      | [], l :: _ -> fail "corpus-ci: report has extra line %d: %s" (i + 1) l
    in
    diff 0 (golden, lines);
    Printf.printf
      "corpus-ci: OK (%d kernels, %d report lines, jobs=%d%s)\n"
      (List.length Polybench.kernels)
      (List.length lines) jobs
      (match Sys.getenv_opt "DLZ_CHAOS" with
      | Some c when c <> "" -> ", chaos " ^ c
      | _ -> "")
  end
