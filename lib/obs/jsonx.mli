(** The JSON codec: the only JSON reader and writer in the system.

    The repo carries no third-party JSON library, so this is the whole
    story: a value type, a recursive-descent parser with an explicit
    nesting bound (64 — a deeper frame is adversarial, not legitimate),
    and a printer whose output is deterministic for a given value.
    Wire frames, bulk NDJSON, engine and daemon stats, metric snapshots
    and the Chrome trace export are all printed here, so they share
    one string escaper and one number rule ({!number}).
    Frame size is bounded upstream by the serve layer, so the parser
    never sees unbounded input. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Printed with {!number}; a non-finite value prints as [0]. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val ints : (string * int) list -> t
(** An object of integer members, the shape of most counter blocks. *)

val parse : string -> (t, string) result
(** Total: malformed input is an [Error], never an exception.  Rejects
    trailing bytes after the value. *)

val to_string : t -> string
(** One line, no trailing newline — ready for NDJSON appending. *)

val write_fields : Buffer.t -> (string * t) list -> unit
(** The members of an [Obj] without the braces, for writers that
    splice a field the codec does not print (the Chrome exporter's
    fixed-point [ts]). *)

val number : float -> string
(** The metrics-plane number rule: integral values below 1e15 print
    bare ([42]), everything else with [%.9g] ([1512.5]).  Shared by
    the [Float] case and the Prometheus writer's gauge values. *)

(** Shape accessors: [None] on type mismatch, so protocol code can
    validate without try/with. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
