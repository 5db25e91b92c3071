module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Ddvec = Dlz_deptest.Ddvec
module Classify = Dlz_deptest.Classify

type dep = {
  src : Access.t;
  dst : Access.t;
  kind : Classify.kind;
  dirvec : Dirvec.t;
  ddvec : Ddvec.t;
  via : string;
  degraded : (string * string) list;
}

type mode = Delinearize | Classic | ExactMode

let cascade_of_mode = function
  | Delinearize -> Cascade.delin
  | Classic -> Cascade.classic
  | ExactMode -> Cascade.exact

(* Basic direction vectors admitted by a (possibly non-basic) vector. *)
let decomposition dv =
  Array.fold_right
    (fun d acc ->
      List.concat_map
        (fun child -> List.map (fun tail -> child :: tail) acc)
        (Dirvec.refinements d))
    dv [ [] ]
  |> List.map Array.of_list

let summarize ~self vecs =
  let identity n = Array.make n Dirvec.Eq in
  let covered set dv =
    List.for_all
      (fun basic ->
        List.exists (Dirvec.equal basic) set
        || (self && Dirvec.equal basic (identity (Array.length basic))))
      (decomposition dv)
  in
  let rec merge groups =
    let rec try_pairs = function
      | [] -> None
      | g :: rest -> (
          let candidate =
            List.find_opt (fun h -> covered vecs (Dirvec.join g h)) rest
          in
          match candidate with
          | Some h ->
              Some
                (Dirvec.join g h
                :: List.filter (fun x -> not (Dirvec.equal x h)) rest)
          | None -> (
              match try_pairs rest with
              | Some rest' -> Some (g :: rest')
              | None -> None))
    in
    match try_pairs groups with Some g' -> merge g' | None -> groups
  in
  merge (List.sort_uniq Dirvec.compare vecs)

let apply_distances dv distances =
  List.fold_left
    (fun ddv (lvl, d) ->
      match Poly.to_const d with
      | Some dc when lvl >= 1 && lvl <= Array.length dv ->
          (* Only keep the distance when it is consistent with the
             summarized direction at that level. *)
          if Dirvec.admits dv.(lvl - 1) dc then Ddvec.with_distance ddv lvl dc
          else ddv
      | _ -> ddv)
    (Ddvec.of_dirvec dv) distances

(* One answered pair's rows: summarization, one dep row per surviving
   summarized vector (in summary order). *)
let deps_of_result ((pr : Engine.pair), (r : Strategy.result)) =
  let src = pr.Engine.src and dst = pr.Engine.dst in
  let self = pr.Engine.self in
  let identity_only =
    self
    && List.for_all
         (fun dv -> Array.for_all (fun d -> d = Dirvec.Eq) dv)
         r.Strategy.dirvecs
  in
  if r.Strategy.verdict = Verdict.Independent || identity_only then []
  else begin
    let summaries = summarize ~self r.Strategy.dirvecs in
    let is_identity dv = Array.for_all (( = ) Dirvec.Eq) dv in
    let summaries =
      if not self then summaries
      else
        (* A self pair is symmetric: the pure-identity row is
           not a dependence, and an implausible row mirrors a
           reported plausible one. *)
        List.filter
          (fun dv ->
            (not (is_identity dv))
            && (Dirvec.plausible dv
               || not
                    (List.exists
                       (Dirvec.equal (Dirvec.reverse dv))
                       summaries)))
          summaries
    in
    let kind = Classify.kind ~src:src.Access.rw ~dst:dst.Access.rw in
    List.map
      (fun dv ->
        {
          src;
          dst;
          kind;
          dirvec = dv;
          ddvec = apply_distances dv r.Strategy.distances;
          via = r.Strategy.decided_by;
          degraded = r.Strategy.degraded;
        })
      summaries
  end

let deps_of_results results = List.concat_map deps_of_result results

let deps_of_accesses ?(cascade = Cascade.delin) ?budget ?pool ~env accs =
  Dlz_base.Trace.with_span ~cat:"driver"
    ~lazy_args:(fun () -> [ ("cascade", cascade.Cascade.name) ])
    "analyze.accesses"
  @@ fun () ->
  deps_of_results (Engine.query_all ~cascade ?budget ?pool ~env accs)

let deps_of_program ?cascade ?budget ?pool ?(env = Assume.empty) prog =
  let accs, env = Access.of_program ~env prog in
  deps_of_accesses ?cascade ?budget ?pool ~env accs

let pp_dep ppf d =
  Format.fprintf ppf "%s:%s -> %s:%s  %s  %s  [%s]" d.src.Access.stmt_name
    d.src.Access.array d.dst.Access.stmt_name d.dst.Access.array
    (Dirvec.to_string d.dirvec) (Ddvec.to_string d.ddvec)
    (Classify.to_string d.kind);
  List.iter
    (fun (s, why) -> Format.fprintf ppf "  degraded_by: %s %s" s why)
    d.degraded
