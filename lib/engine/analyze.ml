module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Mask = Dirvec.Mask
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

(* Figure 3's greedy merge on lattice masks: the first vector, in
   [Dirvec.compare] order, with a later partner whose join is covered
   becomes the join, every copy of the partner leaves, and the search
   starts again.  A join is covered when every basic vector it admits
   is in the cover (the input's basic members and a self pair's
   identity): when as many cover members lie below it as it admits
   basic vectors. *)
let summarize ~self vecs =
  match List.sort_uniq Dirvec.compare vecs with
  | [] -> []
  | v :: _ as vecs ->
      let n = Array.length v in
      if List.exists (fun v -> Array.length v <> n) vecs then
        invalid_arg "Analyze.summarize: length mismatch";
      let packed = List.map Mask.pack vecs in
      let cover =
        let members =
          List.filter (fun w -> Mask.basics ~cap:2 n w = 1) packed
        in
        let identity = Mask.pack (Array.make n Dirvec.Eq) in
        if self && not (List.exists (Mask.equal identity) members) then
          identity :: members
        else members
      in
      let nc = List.length cover in
      let covered m =
        let s = Mask.basics ~cap:(nc + 1) n m in
        s <= nc
        && List.fold_left (fun c b -> if Mask.leq b m then c + 1 else c) 0 cover
           = s
      in
      let rec merge groups =
        let rec try_pairs = function
          | [] -> None
          | g :: rest -> (
              let joined h =
                let m = Mask.join g h in
                if covered m then Some (h, m) else None
              in
              match List.find_map joined rest with
              | Some (h, m) ->
                  Some (m :: List.filter (fun x -> not (Mask.equal x h)) rest)
              | None -> Option.map (fun rest' -> g :: rest') (try_pairs rest))
        in
        match try_pairs groups with Some g' -> merge g' | None -> groups
      in
      List.map (Mask.unpack n) (merge packed)

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
