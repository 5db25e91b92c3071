module Access = Dlz_ir.Access
module Interp = Dlz_passes.Interp
module Dirvec = Dlz_deptest.Dirvec
module Classify = Dlz_deptest.Classify
module Analyze = Dlz_engine.Analyze

type dep = {
  src_stmt : int;
  dst_stmt : int;
  kind : Classify.kind;
  vec : Dirvec.t;
}

(* Direction vector between two instances over their common loops
   (longest common prefix by variable name), from the earlier one. *)
let vec_between (a : Interp.instance) (b : Interp.instance) =
  let rec go = function
    | (va, xa) :: ra, (vb, xb) :: rb when String.equal va vb ->
        Dirvec.of_delta (xb - xa) :: go (ra, rb)
    | _ -> []
  in
  Array.of_list (go (a.iter, b.iter))

let dependences ?syms ?fuel p =
  let last_write : (string * int, Interp.instance) Hashtbl.t =
    Hashtbl.create 64
  in
  let readers : (string * int, Interp.instance list) Hashtbl.t =
    Hashtbl.create 64
  in
  let deps = Hashtbl.create 64 in
  let dep_order = ref [] in
  let emit (src : Interp.instance) (dst : Interp.instance) kind =
    (* src executes first by construction; a statement instance's own
       read feeding its own write is not a dependence. *)
    if src <> dst then begin
      let vec = vec_between src dst in
      let key = (src.stmt, dst.stmt, kind, vec) in
      if not (Hashtbl.mem deps key) then begin
        Hashtbl.replace deps key ();
        dep_order :=
          { src_stmt = src.stmt; dst_stmt = dst.stmt; kind; vec } :: !dep_order
      end
    end
  in
  Interp.iter ?syms ?fuel
    (fun me (e : Interp.event) ->
      match me with
      | None ->
          (* A DO-bound read belongs to no statement, so no static row
             can cover it. *)
          ()
      | Some me -> (
          let cell = (e.block, e.addr) in
          match e.kind with
          | Interp.Read ->
              Option.iter
                (fun w -> emit w me Classify.True)
                (Hashtbl.find_opt last_write cell);
              Hashtbl.replace readers cell
                (me
                :: Option.value (Hashtbl.find_opt readers cell) ~default:[])
          | Interp.Write ->
              List.iter
                (fun r -> emit r me Classify.Anti)
                (Option.value (Hashtbl.find_opt readers cell) ~default:[]);
              Option.iter
                (fun w -> emit w me Classify.Output)
                (Hashtbl.find_opt last_write cell);
              Hashtbl.replace readers cell [];
              Hashtbl.replace last_write cell me))
    p;
  List.rev !dep_order

let covers (s : Analyze.dep) (d : dep) =
  let s_src = s.Analyze.src.Access.stmt_id
  and s_dst = s.Analyze.dst.Access.stmt_id in
  let admits vec dyn =
    Array.length dyn <= Array.length vec
    && Array.for_all2
         (fun sv dv -> Dirvec.meet_dir sv dv <> None)
         (Array.sub vec 0 (Array.length dyn))
         dyn
  in
  (s_src = d.src_stmt && s_dst = d.dst_stmt && admits s.Analyze.dirvec d.vec)
  || s_src = d.dst_stmt && s_dst = d.src_stmt
     && admits s.Analyze.dirvec (Dirvec.reverse d.vec)

let uncovered dyn static =
  List.filter (fun d -> not (List.exists (fun s -> covers s d) static)) dyn
