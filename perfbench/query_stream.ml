(* query-stream: [Engine.query] over the seeded Eqgen mix, the engine
   alone with no frontend.  The cache is cleared before every pass, so
   each pass pays the misses again; the mix holds symbolic problems the
   cache cannot store and near-overflow problems.  An operation and a
   latency sample are one query.  Times are corrected to nominal host
   speed, see [Hostspeed]. *)

open Harness
module Engine = Dlz_engine.Engine
module Eqgen = Dlz_oracle.Eqgen

(* Problems the strategy probe runs on: a stride subsample, so it keeps
   the family mix. *)
let probe_size = 2000

(* Queries per host speed reference run: about 10 ms of queries. *)
let block = 1024

let setup ~seed =
  let cases = Inputs.query_cases ~seed in
  let n = Array.length cases in
  let first = Array.make n None and current = Array.make n None in
  let passes = ref 0 and mismatched = ref 0 in
  (* One pass.  With [on_query] each query is timed and reported as
     [on_query case ns]; without it the loop reads no clock.  Returns
     the pass wall time and the queries that raised. *)
  let pass ?on_query () =
    Engine.reset_metrics ();
    let failed = ref 0 in
    let t0 = now_ns () in
    for i = 0 to n - 1 do
      let c = cases.(i) in
      let q0 = match on_query with Some _ -> now_ns () | None -> 0L in
      (match Engine.query ~env:c.Eqgen.env c.Eqgen.problem with
      | r -> current.(i) <- Some r
      | exception ((Out_of_memory | Sys.Break) as e) -> raise e
      | exception _ ->
          incr failed;
          current.(i) <- None);
      match on_query with Some f -> f c (since_ns q0) | None -> ()
    done;
    let ns = since_ns t0 in
    (* Every pass must answer exactly as the first one did. *)
    if !passes = 0 then Array.blit current 0 first 0 n
    else if current <> first then incr mismatched;
    incr passes;
    (ns, !failed)
  in
  ignore (pass ());
  (* Timed passes until the deadline; [each case ns] sees every query's
     raw time and [after] runs between passes.  With [~speed:true] the
     samples and the busy time are corrected to nominal host speed by
     one reference run per [block] queries.  Also returns the passes'
     total wall time. *)
  let measure ~until ~speed ~each ~after =
    let lat = Stats.Samples.create sample_cap in
    let busy = ref 0. and raw = ref 0. and wall = ref 0. and queries = ref 0 and failed = ref 0 in
    let buf = Array.make block 0. and k = ref 0 in
    let meter = Hostspeed.meter () in
    let flush () =
      let f = if speed then Hostspeed.factor meter else 1. in
      for j = 0 to !k - 1 do
        busy := !busy +. (buf.(j) *. f);
        raw := !raw +. buf.(j);
        Stats.Samples.add lat (buf.(j) *. f /. 1e6)
      done;
      k := 0
    in
    let on_query c ns =
      each c ns;
      buf.(!k) <- ns;
      incr k;
      if !k = block then flush ()
    in
    let rec loop () =
      let ns, f = pass ~on_query () in
      flush ();
      wall := !wall +. ns;
      queries := !queries + n;
      failed := !failed + f;
      after ();
      if now () < until then loop ()
    in
    loop ();
    ( {
        ops = !queries - !failed;
        busy_s = !busy /. 1e9;
        latency_ms = Stats.Samples.to_array lat;
        attempted = !queries;
        failed = !failed;
        speed = ratio !busy !raw;
      },
      !wall )
  in
  let run ~until = fst (measure ~until ~speed:true ~each:(fun _ _ -> ()) ~after:ignore) in
  let traced ~until =
    (* Each traced pass (per-query clock, per-family samples) is
       followed by the same pass without a clock. *)
    let families = Hashtbl.create 8 and query_ns = ref 0. in
    let plain_ns = ref 0. and last = ref zero_counters in
    let each c ns =
      query_ns := !query_ns +. ns;
      let fam = c.Eqgen.family in
      let s =
        match Hashtbl.find_opt families fam with
        | Some s -> s
        | None ->
            let s = Stats.Samples.create (1 lsl 14) in
            Hashtbl.add families fam s;
            s
      in
      Stats.Samples.add s (ns /. 1e3)
    in
    let after () =
      last := counters ();
      plain_ns := !plain_ns +. fst (pass ())
    in
    let m, wall = measure ~until ~speed:false ~each ~after in
    let rounds = fi (m.attempted / n) in
    let stride = max 1 (n / probe_size) in
    let sub =
      Array.init (n / stride) (fun i ->
          let c = cases.(i * stride) in
          (c.Eqgen.env, c.Eqgen.problem))
    in
    let probe = probe sub in
    let probed name = (List.find (fun x -> x.name = name) probe).value in
    let query_pass_ns = !query_ns /. rounds in
    let fams =
      Hashtbl.fold (fun f s acc -> (f, s) :: acc) families []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    ( m,
      [ metric "engine.query_us" "us" (!query_ns /. fi m.attempted /. 1e3) ]
      @ probe
      @ engine_metrics ~pairs:n zero_counters !last
      @ shares ~wall_ns:(wall /. rounds) [ ("engine", query_pass_ns) ]
      @ [ trace_overhead ~traced:wall ~untraced:!plain_ns ]
      @ [
          metric "engine.key_ms" "ms" (probed "engine.key_us" *. fi n /. 1e3);
          metric "engine.query_ms" "ms" (query_pass_ns /. 1e6);
          metric "engine.cascade_ms" "ms" (probed "engine.cascade_us" *. fi n /. 1e3);
        ]
      @ List.map
          (fun (f, s) ->
            metric
              (Printf.sprintf "engine.query.%s.p50_us" f)
              "us"
              (Stats.median (Stats.Samples.to_array s)))
          fams )
  in
  let checks () =
    let t = tally () in
    Array.iteri
      (fun i r ->
        Option.iter (fun r -> verify_result t ~id:cases.(i).Eqgen.id cases.(i).Eqgen.ground r) r)
      first;
    [
      {
        what = "repeatable";
        ok = !mismatched = 0;
        detail = Printf.sprintf "%d/%d passes answered as the first" (!passes - !mismatched) !passes;
      };
      tally_check "oracle" t;
    ]
  in
  { run; traced; checks; teardown = Engine.reset_metrics }
