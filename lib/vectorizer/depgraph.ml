module Dirvec = Dlz_deptest.Dirvec
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Verdict = Dlz_deptest.Verdict
module Classify = Dlz_deptest.Classify
module Mask = Dirvec.Mask
module Engine = Dlz_engine.Engine
module Strategy = Dlz_engine.Strategy

type edge = {
  e_src : int;
  e_dst : int;
  e_vec : Dirvec.t;
  e_level : int;
  e_kind : Classify.kind;
}

type t = { nstmts : int; stmt_names : string array; edges : edge list }

(* An edge as an int key that sorts as [Stdlib.compare] sorts edge
   records: source, sink, vector length, the vector's ints under
   {!Mask.rank}, carrying level and kind (its constructor index). *)
let kinds = Classify.[| True; Anti; Output; Input |]

let kind_index = function
  | Classify.True -> 0
  | Anti -> 1
  | Output -> 2
  | Input -> 3

(* The key of the basic vector [b] over [n] levels as an edge of
   [kind] from [src] to [dst], [<] and [>] swapped when [reversed]. *)
let key src dst kind n b ~reversed level =
  let k = Array.length b in
  let key = Array.make (k + 5) 0 in
  key.(0) <- src.Access.stmt_id;
  key.(1) <- dst.Access.stmt_id;
  key.(2) <- n;
  for j = 0 to k - 1 do
    key.(3 + j) <- Mask.rank (if reversed then Mask.reverse b.(j) else b.(j))
  done;
  key.(k + 3) <- level;
  key.(k + 4) <- kind;
  key

let edge key =
  let k = Array.length key - 5 in
  {
    e_src = key.(0);
    e_dst = key.(1);
    e_vec = Mask.unpack key.(2) (Array.init k (fun j -> Mask.rank key.(3 + j)));
    e_level = key.(k + 3);
    e_kind = kinds.(key.(k + 4));
  }

(* Keys of equal source, sink and length are equally long. *)
let rec compare_keys a b i =
  if i = Array.length a then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_keys a b (i + 1)

(* The keys of the edges one answered pair contributes, one per basic
   vector its answer admits, oriented by the vector's first level that
   is not [=]. *)
let keys_of_result acc ((pr : Engine.pair), (r : Strategy.result)) =
  if r.Strategy.verdict = Verdict.Independent then acc
  else
    let x = pr.Engine.src and y = pr.Engine.dst in
    let kind src dst =
      kind_index (Classify.kind ~src:src.Access.rw ~dst:dst.Access.rw)
    in
    let forward = kind x y and backward = kind y x in
    let keys = ref acc in
    List.iter
      (fun vec ->
        let n = Array.length vec in
        let add src dst kind b ~reversed level =
          keys := key src dst kind n b ~reversed level :: !keys
        in
        Mask.iter_basics
          (fun b ->
            match Mask.lead n b with
            | 0 ->
                (* Same statement: the read executes before the write;
                   within-statement flow does not constrain loop
                   rearrangement, and the identity instance of a single
                   reference is not a dependence.  Across statements,
                   orient by textual order. *)
                if x.Access.stmt_id < y.Access.stmt_id then
                  add x y forward b ~reversed:false max_int
                else if y.Access.stmt_id < x.Access.stmt_id then
                  add y x backward b ~reversed:false max_int
            | lvl when Mask.get b lvl = Dirvec.Lt ->
                add x y forward b ~reversed:false lvl
            | lvl -> add y x backward b ~reversed:true lvl)
          n (Mask.pack vec))
      r.Strategy.dirvecs;
    !keys

let of_results accs results =
  let nstmts =
    List.fold_left (fun m a -> max m (a.Access.stmt_id + 1)) 0 accs
  in
  let stmt_names = Array.make nstmts "" in
  List.iter (fun a -> stmt_names.(a.Access.stmt_id) <- a.Access.stmt_name) accs;
  (* Sorting and deduplicating the keys also fixes the final order, so
     the graph is byte-identical for any job count. *)
  let keys =
    List.sort_uniq
      (fun a b -> compare_keys a b 0)
      (List.fold_left keys_of_result [] results)
  in
  { nstmts; stmt_names; edges = List.map edge keys }

let build ?cascade ?budget ?pool ?(env = Assume.empty) prog =
  Dlz_base.Trace.with_span ~cat:"driver" "depgraph.build" @@ fun () ->
  let accs, env = Access.of_program ~env prog in
  of_results accs (Engine.query_all ?cascade ?budget ?pool ~env accs)

let edges_at_level g level =
  List.filter (fun e -> e.e_level >= level) g.edges

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "%s -> %s %s level %s [%s]@,"
        g.stmt_names.(e.e_src) g.stmt_names.(e.e_dst)
        (Dirvec.to_string e.e_vec)
        (if e.e_level = max_int then "inf" else string_of_int e.e_level)
        (Classify.to_string e.e_kind))
    g.edges;
  Format.fprintf ppf "@]"
