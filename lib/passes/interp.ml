module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr

type kind = Read | Write
type event = { block : string; addr : int; kind : kind }
type instance = { stmt : int; iter : (string * int) list }

type error =
  | Out_of_fuel of int
  | Zero_step
  | Undeclared_array of string
  | Arity_mismatch of string
  | Subscript_out_of_range of { array : string; sub : int; lo : int; hi : int }
  | Non_constant_bound of string
  | Empty_dimension of string
  | Conflicting_equivalence of string

exception Error of error

let err e = raise (Error e)

let describe = function
  | Out_of_fuel fuel -> Printf.sprintf "out of fuel (%d steps)" fuel
  | Zero_step -> "DO loop with zero step"
  | Undeclared_array a -> Printf.sprintf "undeclared array %s" a
  | Arity_mismatch a -> Printf.sprintf "subscript arity mismatch on %s" a
  | Subscript_out_of_range { array; sub; lo; hi } ->
      Printf.sprintf "subscript %d of %s out of [%d,%d]" sub array lo hi
  | Non_constant_bound a ->
      Printf.sprintf "non-constant bound on %s (missing ?syms entry?)" a
  | Empty_dimension a -> Printf.sprintf "empty dimension on %s" a
  | Conflicting_equivalence a ->
      Printf.sprintf "EQUIVALENCE places %s at two addresses" a

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Interp.Error: " ^ describe e)
    | _ -> None)

type array_info = {
  dims : (int * int) list; (* (lo, extent) per dimension *)
  block : string;
  base : int; (* offset of the array within its block *)
}

(* Column-major offset of [subs] within the array, range-checked. *)
let offset name info subs =
  let rec go dims subs stride acc =
    match (dims, subs) with
    | [], [] -> acc
    | (lo, extent) :: dims, s :: subs ->
        if s < lo || s >= lo + extent then
          err
            (Subscript_out_of_range
               { array = name; sub = s; lo; hi = lo + extent - 1 });
        go dims subs (stride * extent) (acc + ((s - lo) * stride))
    | _ -> err (Arity_mismatch name)
  in
  go info.dims subs 1 0

let build_layout ~syms (p : Ast.program) =
  let const name e =
    match Expr.to_const e with
    | Some c -> c
    | None -> (
        try Expr.eval (fun v -> List.assoc v syms) e
        with Not_found | Failure _ | Division_by_zero
        | Dlz_base.Intx.Overflow _ ->
          err (Non_constant_bound name))
  in
  let arrays = Hashtbl.create 16 in
  List.iter
    (function
      | Ast.Array a ->
          let dims =
            List.map
              (fun (d : Ast.dim) ->
                let lo = const a.a_name d.lo and hi = const a.a_name d.hi in
                if hi < lo then err (Empty_dimension a.a_name);
                (lo, hi - lo + 1))
              a.a_dims
          in
          Hashtbl.replace arrays a.a_name
            { dims; block = a.a_name; base = 0 }
      | _ -> ())
    p.decls;
  let info name = Hashtbl.find arrays name in
  let size name =
    List.fold_left (fun acc (_, e) -> acc * e) 1 (info name).dims
  in
  let anchor name subs = offset name (info name) (List.map (const name) subs) in
  let areas =
    try Storage.layout ~size ~anchor p
    with Storage.Error (Storage.Conflict name) ->
      err (Conflicting_equivalence name)
  in
  List.iter
    (fun (block, bases) ->
      List.iter
        (fun (name, base) ->
          Hashtbl.replace arrays name { (info name) with block; base })
        bases)
    areas;
  arrays

(* The body with each assignment numbered in program order, as
   [Access] numbers statements. *)
type node =
  | Skip
  | Set of int * Ast.aref * Expr.t
  | Loop of string * Expr.t * Expr.t * Expr.t * node list

let number body =
  let next = ref 0 in
  let rec go = function
    | Ast.Continue _ -> Skip
    | Ast.Assign { lhs; rhs; _ } ->
        let id = !next in
        incr next;
        Set (id, lhs, rhs)
    | Ast.Do d -> Loop (d.var, d.lo, d.hi, d.step, List.map go d.body)
  in
  List.map go body

let iter ?(syms = []) ?(fuel = 20_000_000) f (p : Ast.program) =
  let arrays = build_layout ~syms p in
  let scalars : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (s, v) -> Hashtbl.replace scalars s v) syms;
  List.iter
    (function
      | Ast.Parameter ps ->
          List.iter (fun (n, v) -> Hashtbl.replace scalars n v) ps
      | _ -> ())
    p.decls;
  let memory : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  let steps = ref 0 in
  (* Enclosing loop variables and their values, innermost first. *)
  let loops = ref [] in
  let rec eval me e =
    match e with
    | Expr.Const c -> c
    | Expr.Var v -> Option.value (Hashtbl.find_opt scalars v) ~default:0
    | Expr.Neg a -> -eval me a
    | Expr.Bin (op, a, b) -> (
        let x = eval me a and y = eval me b in
        match op with
        | Expr.Add -> x + y
        | Expr.Sub -> x - y
        | Expr.Mul -> x * y
        | Expr.Div -> if y = 0 then 0 else x / y)
    | Expr.Call ("%REAL", _) -> 0
    | Expr.Call ("%POW", [ b; e ]) ->
        let be = eval me b and ee = eval me e in
        if ee < 0 then 0
        else
          let rec pw acc n = if n = 0 then acc else pw (acc * be) (n - 1) in
          pw 1 ee
    | Expr.Call (name, args) -> (
        let vals = List.map (eval me) args in
        match Hashtbl.find_opt arrays name with
        | Some info ->
            let addr = info.base + offset name info vals in
            f me { block = info.block; addr; kind = Read };
            Option.value
              (Hashtbl.find_opt memory (info.block, addr))
              ~default:0
        | None ->
            (* Opaque call: deterministic small pseudo-value, kept in
               [0, 7] so the paper fragments' opaque subscripts (e.g.
               IFUN(10) indexing a 0:9 dimension) stay in range. *)
            List.fold_left
              (fun acc v -> (acc * 31) + v)
              (Hashtbl.hash name) vals
            land 0x7)
  in
  let rec exec node =
    incr steps;
    if !steps > fuel then err (Out_of_fuel fuel);
    match node with
    | Skip -> ()
    | Set (stmt, lhs, rhs) -> (
        let me = Some { stmt; iter = List.rev !loops } in
        let v = eval me rhs in
        match Hashtbl.find_opt arrays lhs.name with
        | Some info ->
            let subs = List.map (eval me) lhs.subs in
            let addr = info.base + offset lhs.name info subs in
            f me { block = info.block; addr; kind = Write };
            Hashtbl.replace memory (info.block, addr) v
        | None ->
            if lhs.subs <> [] then err (Undeclared_array lhs.name);
            Hashtbl.replace scalars lhs.name v)
    | Loop (var, lo, hi, step, body) ->
        let lo = eval None lo and hi = eval None hi and step = eval None step in
        if step = 0 then err Zero_step;
        let continue v = if step > 0 then v <= hi else v >= hi in
        let v = ref lo in
        while continue !v do
          Hashtbl.replace scalars var !v;
          loops := (var, !v) :: !loops;
          List.iter exec body;
          loops := List.tl !loops;
          v := !v + step
        done
  in
  List.iter exec (number p.body)

let run ?syms ?fuel p =
  let trace = ref [] in
  iter ?syms ?fuel (fun _ e -> trace := e :: !trace) p;
  List.rev !trace

let normalized (events : event list) =
  let ids = Hashtbl.create 8 in
  List.map
    (fun (e : event) ->
      let id =
        match Hashtbl.find_opt ids e.block with
        | Some i -> i
        | None ->
            let i = Hashtbl.length ids in
            Hashtbl.replace ids e.block i;
            i
      in
      (id, e.addr, e.kind))
    events

let equivalent a b = normalized a = normalized b
