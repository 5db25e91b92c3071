(** Source locations and parse diagnostics shared by both front ends. *)

type loc = { line : int; col : int }

exception Parse_error of loc * string

val error : loc -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Formats a message and raises {!Parse_error}. *)

val describe : exn -> string option
(** Human-readable rendering of a {!Parse_error}; [None] for other
    exceptions. *)
