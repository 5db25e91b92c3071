(** Distance-direction vectors (paper §2).

    Each component is either an exact distance [β - α] (when constant
    across all dependences summarized) or a direction.  As the paper
    notes, such a vector "carries all the information that is carried by
    direction and distance vector combined": [(≤, 1)] in the paper's
    example. *)

type elt = Dist of int | Dir of Dirvec.dir
type t = elt array

val of_dirvec : Dirvec.t -> t
(** Directions only, except [=] which is the exact distance [0]. *)

val with_distance : t -> int -> int -> t
(** [with_distance v level d] sets component [level] (1-based) to the
    exact distance [d]. *)

val to_dirvec : t -> Dirvec.t
(** Forgets distances (a distance [d] becomes its direction). *)

val consistent : t -> Dirvec.t -> bool
(** Whether the distance-direction vector is compatible with the given
    direction vector componentwise. *)

val join : t -> t -> t
(** Componentwise summary: equal distances stay exact, everything else
    widens to the direction join. *)

val to_string : t -> string
(** Printed like ( *, +1 ); positive distances print with an explicit sign. *)
