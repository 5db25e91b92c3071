module Assume = Dlz_symbolic.Assume
module Problem = Dlz_deptest.Problem
module Verdict = Dlz_deptest.Verdict
module Budget = Dlz_base.Budget
module Intx = Dlz_base.Intx
module Trace = Dlz_base.Trace

type t = { name : string; steps : Strategy.t list }

let make ~name steps = { name; steps }

let of_names names =
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
        match Registry.find n with
        | Some s -> resolve (s :: acc) rest
        | None -> Error n)
  in
  match resolve [] names with
  | Ok steps -> Ok { name = String.concat "," names; steps }
  | Error n -> Error (Printf.sprintf "unknown strategy %S" n)

(* Presets reproducing the historical Delinearize/Classic/ExactMode
   analyzer modes verbatim. *)
let delin = make ~name:"delin" [ Registry.delinearize ]
let classic = make ~name:"classic" [ Registry.classic ]
let exact = make ~name:"exact" [ Registry.exact; Registry.delinearize ]

let presets = [ ("delin", delin); ("classic", classic); ("exact", exact) ]

(* Per-strategy histogram handles, memoized by bare strategy name so
   the per-attempt Timing path skips the ["strategy." ^ name]
   concatenation (an allocation per attempt, on the hottest
   telemetry path).  Same lock-free CAS idiom as the Trace registry. *)
module Smap = Map.Make (String)

let hist_memo : Trace.Hist.t Smap.t Atomic.t = Atomic.make Smap.empty

let rec strategy_hist name =
  let m = Atomic.get hist_memo in
  match Smap.find_opt name m with
  | Some h -> h
  | None ->
      let h = Trace.hist ("strategy." ^ name) in
      if Atomic.compare_and_set hist_memo m (Smap.add name h m) then h
      else strategy_hist name

let reason_of_exn = function
  | Chaos.Injected kind -> "chaos:" ^ kind
  | Intx.Overflow op -> "overflow:" ^ op
  | Intx.Div_by_zero op -> "div0:" ^ op
  | Budget.Exhausted why -> "budget:" ^ why
  | Stack_overflow -> "stack_overflow"
  | e -> "exn:" ^ Printexc.to_string e

let struck ?chaos t p =
  match (match chaos with Some _ -> chaos | None -> Chaos.current ()) with
  | None -> false
  | Some c ->
      List.exists
        (fun (s : Strategy.t) -> Chaos.would_strike c ~strategy:s.name p)
        t.steps

let run ?(stats = Stats.global) ?(budget = Budget.unlimited) ?chaos ~env t
    (p : Problem.t) =
  let chaos = match chaos with Some _ as c -> c | None -> Chaos.current () in
  let degraded = ref [] in
  let note name reason =
    Stats.record_degradation stats name ~reason;
    degraded := (name, reason) :: !degraded
  in
  let rec go = function
    | [] -> Strategy.conservative ~degraded:(List.rev !degraded) p
    | (s : Strategy.t) :: rest -> (
        match Budget.exhausted budget with
        | Some why ->
            (* The enclosing budget is spent: every remaining strategy
               would only raise, so settle for the conservative result
               now (one degradation, not one per remaining step).  No
               raise fired here, so mark the trip point explicitly. *)
            Trace.instant ~cat:"budget"
              ~args:[ ("reason", why); ("at", s.name) ]
              "budget.exhausted";
            note s.name ("budget:" ^ why);
            Strategy.conservative ~degraded:(List.rev !degraded) p
        | None ->
            if not (s.applies ~env p) then go rest
            else begin
              Stats.record_attempt stats s.name;
              (* One child span per attempt, nested under the query
                 span; the outcome attribute mirrors the provenance the
                 result will carry (decided:* ↔ decided_by, degraded:*
                 ↔ degraded_by), and the attempt latency feeds the
                 per-strategy histogram. *)
              let t0 = if Trace.timing_on () then Trace.now_ns () else 0L in
              let sp =
                if Trace.recording_on () then
                  Trace.start ~cat:"strategy" ~ts:t0 s.name
                else Trace.null_span
              in
              (* [outcome] is a thunk: the attribute string is only
                 materialized when this span actually lands in the
                 stream (at export, not even at finish).  The settle
                 clock read is shared between the histogram
                 observation and the span's end timestamp. *)
              let attempted outcome =
                if Trace.timing_on () then begin
                  let t1 = Trace.now_ns () in
                  Trace.Hist.observe (strategy_hist s.name)
                    (Int64.sub t1 t0);
                  if Trace.is_live sp then
                    Trace.finish sp ~ts:t1
                      ~lazy_args:(fun () -> [ ("outcome", outcome ()) ])
                  else Trace.finish sp
                end
                else Trace.finish sp
              in
              match
                (match chaos with
                | Some c -> Chaos.strike c ~strategy:s.name p
                | None -> ());
                s.run ~env ~budget p
              with
              | status -> (
                  match
                    Strategy.result_of_status
                      ~degraded:(List.rev !degraded)
                      s.name status
                  with
                  | Some r ->
                      attempted (fun () ->
                          "decided:" ^ Verdict.to_string r.Strategy.verdict);
                      Stats.record_decision stats s.name r.Strategy.verdict;
                      r
                  | None ->
                      attempted (fun () -> "pass");
                      Stats.record_pass stats s.name;
                      go rest)
              | exception ((Out_of_memory | Sys.Break) as e) ->
                  (* Process-level conditions are not query faults; the
                     span still closes so the stream stays balanced. *)
                  attempted (fun () -> "fatal");
                  raise e
              | exception e ->
                  let reason = reason_of_exn e in
                  attempted (fun () -> "degraded:" ^ reason);
                  note s.name reason;
                  go rest
            end)
  in
  go t.steps
