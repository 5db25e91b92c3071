(** Aligned plain-text tables.

    Every experiment prints a table mirroring the paper's figures; this
    renderer keeps their formatting uniform across the CLI, the examples
    and EXPERIMENTS.md. *)

type align = Left | Right | Center

type t
(** A table under construction. *)

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table with the given column headers.
    [aligns] defaults to left-alignment for every column; a short list is
    padded with [Left]. *)

val add_row : t -> string list -> unit
(** Appends a row.  Rows shorter than the header are padded with empty
    cells; longer rows raise [Invalid_argument]. *)

val render : t -> string
(** Renders with box-drawing ASCII (pipes and dashes), GitHub-markdown
    compatible. *)

val pp : Format.formatter -> t -> unit
