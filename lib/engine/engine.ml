module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Problem = Dlz_deptest.Problem
module Pool = Dlz_base.Pool

type pair = {
  src : Access.t;
  dst : Access.t;
  self : bool;
  problem : Problem.t;
}

let orient a b =
  (* Source = the write; textual order breaks read-write-free ties
     (write/write and the self pair). *)
  match (a.Access.rw, b.Access.rw) with
  | `Write, _ -> (a, b)
  | _, `Write -> (b, a)
  | _ -> (a, b)

(* The cheap screen: at least one write, same array.  Problem
   construction (the expensive part) happens only for survivors. *)
let candidate arr i j =
  let a = arr.(i) and b = arr.(j) in
  (a.Access.rw = `Write || b.Access.rw = `Write)
  && String.equal a.Access.array b.Access.array

let pair_at arr i j =
  let a = arr.(i) and b = arr.(j) in
  let src, dst = orient a b in
  match Problem.of_accesses src dst with
  | None -> None
  | Some problem ->
      Some { src; dst; self = src.Access.acc_id = dst.Access.acc_id; problem }

let pairs_seq accs =
  let arr = Array.of_list accs in
  let n = Array.length arr in
  let rec from i j () =
    if i >= n then Seq.Nil
    else if j >= n then from (i + 1) (i + 1) ()
    else if candidate arr i j then
      match pair_at arr i j with
      | Some pr -> Seq.Cons (pr, from i (j + 1))
      | None -> from i (j + 1) ()
    else from i (j + 1) ()
  in
  from 0 0

let iter_pairs f accs = Seq.iter f (pairs_seq accs)

(* Candidate (i, j) index pairs, in enumeration order.  Two ints per
   candidate — the O(n²) set is never materialized as pairs (closures +
   problems); those are built per chunk, inside the workers. *)
let candidate_indices arr =
  let n = Array.length arr in
  let out = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i do
      if candidate arr i j then out := (i, j) :: !out
    done
  done;
  Array.of_list !out

let query ?(cascade = Cascade.delin) ?stats ?cache ?budget ?chaos ?annot
    ?observer ~env p =
  Query.memoize ?stats ?cache ~budget ~chaos ?annot ?observer ~env cascade p

let query_all ?cascade ?stats ?cache ?budget ?chaos ?annot ?observer ?pool
    ~env accs =
  let answer pr =
    (pr, query ?cascade ?stats ?cache ?budget ?chaos ?annot ?observer ~env
           pr.problem)
  in
  match pool with
  | Some pool when Pool.domains pool > 1 ->
      let arr = Array.of_list accs in
      (* Results land by candidate index: output order is enumeration
         order regardless of which domain ran which chunk. *)
      Pool.map pool
        (fun (i, j) -> Option.map answer (pair_at arr i j))
        (candidate_indices arr)
      |> Array.to_list
      |> List.filter_map Fun.id
  | _ -> List.of_seq (Seq.map answer (pairs_seq accs))

(* Everything the obs registry knows how to reset — engine counters,
   trace histograms, and any serve-side collectors a live daemon
   registered — plus the two stores the registry does not own: the
   memo cache and the event rings. *)
let reset_metrics () =
  Query.clear Query.global_cache;
  Dlz_base.Trace.clear ();
  Dlz_obs.Registry.reset_all ()
