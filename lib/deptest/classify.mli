(** Dependence classification (paper §2): true/anti/output/input,
    determined by the access kinds once source and sink are fixed. *)

type kind = True | Anti | Output | Input

val kind : src:[ `Read | `Write ] -> dst:[ `Read | `Write ] -> kind
(** [src] is the access that executes first. *)

val to_string : kind -> string
