(** Dependence equations with symbolic (loop-invariant) coefficients.

    The general form of paper §4: coefficients, constant term and bounds
    are polynomials over symbols of unknown value ([N], [KK·JJ], …).  A
    symbolic equation projects to a numeric {!Depeq.t} when everything is
    constant, or after sampling symbol values — the bridge the tests use
    to cross-check the symbolic algorithm against the numeric one. *)

module Poly = Dlz_symbolic.Poly

type svar = {
  s_name : string;
  s_ub : Poly.t;  (** The variable ranges over [[0, s_ub]]. *)
  s_side : [ `Src | `Dst ];
  s_level : int;
}

type t = { c0 : Poly.t; terms : (Poly.t * svar) list }

val var : ?side:[ `Src | `Dst ] -> ?level:int -> string -> Poly.t -> svar
val make : Poly.t -> (Poly.t * svar) list -> t
(** Merges duplicate variables and drops zero coefficients. *)

val of_affine_pair :
  src:Dlz_ir.Affine.t -> src_loops:Dlz_ir.Access.loop list ->
  dst:Dlz_ir.Affine.t -> dst_loops:Dlz_ir.Access.loop list -> t
(** The equation [src(α) - dst(β) = 0], with source variables named
    [v1] and destination variables [v2]; levels are 1-based positions in
    the respective loop stacks. *)

val to_numeric : t -> Depeq.t option
(** Defined when every coefficient and bound is an integer constant and
    every bound is nonnegative; the terms pass through {!Depeq.make}. *)

val instantiate : (string -> int) -> t -> Depeq.t
(** Substitutes symbol values everywhere; raises [Invalid_argument] if
    some bound evaluates negative. *)

val symbols : t -> string list
val pp : Format.formatter -> t -> unit
