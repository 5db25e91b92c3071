(* Metric families: named, labelled cells behind one lock-free map per
   family.  Every store in the process (engine stats, pool, trace
   histograms, serve counters, per-client attribution) declares its
   cells here, so finding, resetting and rendering a cell is written
   once. *)

module Lmap = Map.Make (struct
  type t = string list

  let compare = List.compare String.compare
end)

(* The cells and their lifecycle; views share it with their base. *)
type 'c store = {
  cells : 'c Lmap.t Atomic.t;
  create : unit -> 'c;
  clear : 'c -> unit;
  forget : bool;
  hide_zero : bool;
}

type 'c t = {
  name : string;
  help : string;
  labels : string list;
  fixed : (string * string) list;  (* a view's extra label pair *)
  read : 'c -> Registry.value;
  store : 'c store;
}

type any = Any : 'c t -> any
type group = any list ref

let group () = ref []

let add group f =
  Option.iter (fun g -> g := Any f :: !g) group;
  f

let make ?group ?(labels = []) ?(hide_zero = false) ?(forget = false) ~help
    ~create ~clear ~read name =
  add group
    {
      name;
      help;
      labels;
      fixed = [];
      read;
      store =
        { cells = Atomic.make Lmap.empty; create; clear; forget; hide_zero };
    }

let view ?group ?label ~help ~read name f =
  add group { f with name; help; read; fixed = Option.to_list label }

let int_cell () = Atomic.make 0
let zero c = Atomic.set c 0

let counter ?group ?labels ?hide_zero ?forget ~help name =
  make ?group ?labels ?hide_zero ?forget ~help ~create:int_cell ~clear:zero
    ~read:(fun c -> Registry.Counter (Atomic.get c))
    name

let gauge ?group ?(live = false) ~help name =
  make ?group ~help ~create:int_cell
    ~clear:(if live then ignore else zero)
    ~read:(fun c -> Registry.Gauge (float_of_int (Atomic.get c)))
    name

let rec cell f values =
  let m = Atomic.get f.store.cells in
  (* [find] rather than [find_opt]: a found cell allocates nothing. *)
  match Lmap.find values m with
  | c -> c
  | exception Not_found ->
      if List.compare_lengths values f.labels <> 0 then
        invalid_arg ("Family.cell: wrong label count for " ^ f.name);
      let c = f.store.create () in
      if Atomic.compare_and_set f.store.cells m (Lmap.add values c m) then c
      else cell f values

let cells f = Lmap.bindings (Atomic.get f.store.cells)

let reset f =
  let s = f.store in
  if s.forget then Atomic.set s.cells Lmap.empty
  else Lmap.iter (fun _ c -> s.clear c) (Atomic.get s.cells)

let is_zero = function
  | Registry.Counter n -> n = 0
  | Registry.Gauge g -> g = 0.
  | Registry.Hist h -> h.Registry.h_count = 0

let samples f =
  Lmap.fold
    (fun values c acc ->
      let v = f.read c in
      if f.store.hide_zero && is_zero v then acc
      else
        Registry.sample ~help:f.help
          ~labels:(List.combine f.labels values @ f.fixed)
          f.name v
        :: acc)
    (Atomic.get f.store.cells) []

let collect g = List.concat_map (fun (Any f) -> samples f) !g
let reset_group g = List.iter (fun (Any f) -> reset f) !g

let register ~name g =
  Registry.register ~name ~reset:(fun () -> reset_group g) (fun () -> collect g)
