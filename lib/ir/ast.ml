type kind = Real | Integer
type dim = { lo : Expr.t; hi : Expr.t }
type array_decl = { a_name : string; a_kind : kind; a_dims : dim list }

type decl =
  | Array of array_decl
  | Scalar of kind * string
  | Equivalence of (string * Expr.t list) list list
  | Common of string * string list
  | Parameter of (string * int) list

type aref = { name : string; subs : Expr.t list }

type stmt =
  | Assign of { label : int option; lhs : aref; rhs : Expr.t }
  | Do of {
      label : int option;
      var : string;
      lo : Expr.t;
      hi : Expr.t;
      step : Expr.t;
      body : stmt list;
    }
  | Continue of int

type program = { p_name : string; decls : decl list; body : stmt list }
type loops = (string * Expr.t * Expr.t * Expr.t) list

let assign ?label lhs rhs = Assign { label; lhs; rhs }

let do_ ?label ?(step = Expr.Const 1) var lo hi body =
  Do { label; var; lo; hi; step; body }

let ref_ name subs = { name; subs }
let scalar_ref name = { name; subs = [] }

let find_array p name =
  List.find_map
    (function
      | Array a when String.equal a.a_name name -> Some a
      | _ -> None)
    p.decls

let rec map_stmt f s =
  match s with
  | Assign _ | Continue _ -> f s
  | Do d -> f (Do { d with body = List.map (map_stmt f) d.body })

let map_stmts f p = { p with body = List.map (map_stmt f) p.body }

(* The one statement walker.  [expr ~loops e] maps each expression a
   statement holds, [lhs ~loops r] each assignment's target once its
   subscripts are mapped; [loops] are the loops around the position,
   outermost first, with their bounds as written. *)
let rec walk ~expr ~lhs loops s =
  match s with
  | Assign a ->
      let subs = List.map (expr ~loops) a.lhs.subs in
      let target = lhs ~loops { a.lhs with subs } in
      Assign { a with lhs = target; rhs = expr ~loops a.rhs }
  | Continue _ -> s
  | Do d ->
      let lo = expr ~loops d.lo in
      let hi = expr ~loops d.hi in
      let step = expr ~loops d.step in
      let inner = loops @ [ (d.var, d.lo, d.hi, d.step) ] in
      Do { d with lo; hi; step; body = List.map (walk ~expr ~lhs inner) d.body }

let map_exprs f s = walk ~expr:f ~lhs:(fun ~loops:_ r -> r) [] s

let map_refs f p =
  let rec calls ~loops e =
    match e with
    | Expr.Const _ | Expr.Var _ -> e
    | Expr.Neg a -> Expr.Neg (calls ~loops a)
    | Expr.Bin (op, a, b) ->
        let a = calls ~loops a in
        Expr.Bin (op, a, calls ~loops b)
    | Expr.Call (name, args) ->
        let r = f ~loops { name; subs = List.map (calls ~loops) args } in
        Expr.Call (r.name, r.subs)
  in
  { p with body = List.map (walk ~expr:calls ~lhs:f []) p.body }

let iter_assigns p ~f =
  let rec go loops = function
    | Assign _ as s -> f ~loops:(List.rev loops) s
    | Continue _ -> ()
    | Do d -> List.iter (go ((d.var, d.lo, d.hi, d.step) :: loops)) d.body
  in
  List.iter (go []) p.body

let rec expr_refs e =
  match e with
  | Expr.Const _ -> []
  | Expr.Var v -> [ { name = v; subs = [] } ]
  | Expr.Neg a -> expr_refs a
  | Expr.Bin (_, a, b) -> expr_refs a @ expr_refs b
  | Expr.Call (f, args) ->
      (* A call is an array read when [f] is a declared array; the caller
         filters on declarations.  Subscript sub-reads are also
         reported. *)
      { name = f; subs = args } :: List.concat_map expr_refs args

let assign_refs = function
  | Assign { lhs; rhs; _ } ->
      let sub_reads = List.concat_map expr_refs lhs.subs in
      ((lhs, `Write) :: List.map (fun r -> (r, `Read)) sub_reads)
      @ List.map (fun r -> (r, `Read)) (expr_refs rhs)
  | Do _ | Continue _ -> []

(* Rendering: FORTRAN-77 style with two-space indents; labels occupy the
   statement-number field. *)

let pp_label ppf = function
  | Some l -> Format.fprintf ppf "%-4d" l
  | None -> Format.pp_print_string ppf "    "

let pp_aref ppf r =
  if r.subs = [] then Format.pp_print_string ppf r.name
  else
    Format.fprintf ppf "%s(%a)" r.name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Expr.pp)
      r.subs

let rec pp_stmt_indented indent ppf s =
  let pad = String.make indent ' ' in
  match s with
  | Assign { label; lhs; rhs } ->
      Format.fprintf ppf "%a%s%a = %a" pp_label label pad pp_aref lhs Expr.pp rhs
  | Continue l -> Format.fprintf ppf "%-4d%sCONTINUE" l pad
  | Do { label; var; lo; hi; step; body } ->
      let pp_head ppf () =
        match label with
        | Some l -> Format.fprintf ppf "    %sDO %d %s = " pad l var
        | None -> Format.fprintf ppf "    %sDO %s = " pad var
      in
      Format.fprintf ppf "%a%a, %a" pp_head () Expr.pp lo Expr.pp hi;
      (match step with
      | Expr.Const 1 -> ()
      | _ -> Format.fprintf ppf ", %a" Expr.pp step);
      List.iter
        (fun s' ->
          Format.fprintf ppf "@\n%a" (pp_stmt_indented (indent + 2)) s')
        body;
      if label = None then
        Format.fprintf ppf "@\n    %sENDDO" pad

let pp_stmt ppf s = pp_stmt_indented 0 ppf s

let pp_dim ppf (d : dim) =
  match d.lo with
  | Expr.Const 1 -> Expr.pp ppf d.hi
  | _ -> Format.fprintf ppf "%a:%a" Expr.pp d.lo Expr.pp d.hi

let pp_decl ppf = function
  | Array a ->
      Format.fprintf ppf "    %s %s(%a)"
        (match a.a_kind with Real -> "REAL" | Integer -> "INTEGER")
        a.a_name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           pp_dim)
        a.a_dims
  | Scalar (k, n) ->
      Format.fprintf ppf "    %s %s"
        (match k with Real -> "REAL" | Integer -> "INTEGER")
        n
  | Equivalence groups ->
      let pp_item ppf (n, subs) =
        if subs = [] then Format.pp_print_string ppf n
        else pp_aref ppf { name = n; subs }
      in
      Format.fprintf ppf "    EQUIVALENCE %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf g ->
             Format.fprintf ppf "(%a)"
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                  pp_item)
               g))
        groups
  | Common (blk, members) ->
      Format.fprintf ppf "    COMMON /%s/ %s" blk (String.concat ", " members)
  | Parameter ps ->
      Format.fprintf ppf "    PARAMETER (%s)"
        (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) ps))

let pp ppf p =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "    PROGRAM %s" p.p_name;
  List.iter (fun d -> Format.fprintf ppf "@\n%a" pp_decl d) p.decls;
  List.iter (fun s -> Format.fprintf ppf "@\n%a" (pp_stmt_indented 0) s) p.body;
  Format.fprintf ppf "@\n    END@]"

let to_string p = Format.asprintf "%a" pp p

let count_lines p =
  String.split_on_char '\n' (to_string p) |> List.length
