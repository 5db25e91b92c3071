(** Metric families: the one store behind every counter, gauge and
    histogram the registry exposes.

    A family is a metric name with its help text and fixed label
    names.  Its {e cells} — one per tuple of label values — are
    whatever the hot path records into: [int Atomic.t] counters and
    gauges, or latency histograms (any type with a create, clear and
    read function).  A cell is found or added through one lock-free
    map: a lookup is an atomic load and a search in a persistent map;
    adding swaps in an extended map by compare-and-set, and the losing
    side of a race retries and finds the winner's cell, so a label
    tuple always maps to one cell.  Hot paths look a cell up once and
    keep the handle.

    Families are collected into {!group}s; {!register} installs a
    group as one {!Registry} collector, whose scrape renders every
    cell into a sample and whose reset hook resets every family. *)

type 'c t

type group

val group : unit -> group

val make :
  ?group:group ->
  ?labels:string list ->
  ?hide_zero:bool ->
  ?forget:bool ->
  help:string ->
  create:(unit -> 'c) ->
  clear:('c -> unit) ->
  read:('c -> Registry.value) ->
  string ->
  'c t
(** [make ~help ~create ~clear ~read name] is an empty family with
    label names [labels] (default none), added to [group] when given.
    [read] renders a cell at scrape time.  [hide_zero]: cells reading
    as zero (a zero counter or gauge, an empty histogram) are left out
    of the scrape.  {!reset} runs [clear] on every cell in place, so
    handles held by hot paths stay valid; with [forget] it drops the
    cells instead, so label values seen before the reset leave the
    exposition — only for families whose cells are looked up per
    record and never held. *)

val counter :
  ?group:group ->
  ?labels:string list ->
  ?hide_zero:bool ->
  ?forget:bool ->
  help:string ->
  string ->
  int Atomic.t t
(** A family of [int Atomic.t] counters; a reset sets them to 0. *)

val gauge : ?group:group -> ?live:bool -> help:string -> string -> int Atomic.t t
(** An unlabelled family of [int Atomic.t] gauges, rendered as floats.
    A [live] gauge tracks current state (connections being served) and
    is left alone by a reset. *)

val view :
  ?group:group ->
  ?label:string * string ->
  help:string ->
  read:('c -> Registry.value) ->
  string ->
  'c t ->
  'c t
(** [view ~help ~read name f] is a second metric over [f]'s cells:
    the same label names (followed by the fixed pair [label] when
    given), rendered through [read].  Finding a cell in either finds
    it in both, so the metrics of one cell always appear together. *)

val cell : 'c t -> string list -> 'c
(** The cell for these label values (one per label name), added on
    first use.  Raises [Invalid_argument] on a wrong number of
    values. *)

val cells : 'c t -> (string list * 'c) list
(** Every cell with its label values, sorted by label values. *)

val reset : 'c t -> unit
val collect : group -> Registry.sample list
val reset_group : group -> unit

val register : name:string -> group -> unit
(** Installs [group] as the {!Registry} collector [name]
    ({!collect} as its scrape, {!reset_group} as its reset hook). *)
