(* Engine counters read the one way the system reads them: from a
   sample list, [Stats.samples] of an engine instance or the whole
   registry's [Registry.collect ()]. *)

module Registry = Dlz_obs.Registry

(* The count of counter [name] with exactly [labels]; fails the test
   when [samples] holds no such counter. *)
let get ?labels samples name =
  match Registry.counter ?labels samples name with
  | Some n -> n
  | None -> Alcotest.failf "no %s counter" name

(* Every cell of counter family [name]: its labels and its count, in
   exposition order. *)
let cells samples name =
  List.filter_map
    (fun (s : Registry.sample) ->
      match s.s_value with
      | Registry.Counter n when s.s_name = name -> Some (s.s_labels, n)
      | _ -> None)
    samples

(* Cache hits of both temperatures, [vic_engine_cache_hits_total]'s
   two cells. *)
let hits samples =
  let temp t =
    get ~labels:[ ("temp", t) ] samples "vic_engine_cache_hits_total"
  in
  temp "warm" + temp "cold"
