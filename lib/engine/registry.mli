(** The strategy registry: every dependence test in the system,
    registered under a stable name.

    Built-ins (pre-registered):

    - ["delinearize"] — the paper's Figure-4 algorithm, numeric or
      symbolic per equation; total (always decides).  Equivalent to the
      former [Analyze.Delinearize] mode.
    - ["classic"] — direction-vector hierarchy with GCD+Banerjee on the
      unbroken equations; total (symbolic problems degrade to all-[*]).
    - ["exact"] — realized direction vectors from the exact integer
      solver; passes on symbolic problems and on overflow, so cascades
      can fall through to a total strategy.
    - ["gcd"], ["banerjee"], ["svpc"], ["acyclic"], ["residue"], ["fm"],
      ["omega"] — conservative filters: decide only when they prove
      independence of some dependence equation, pass otherwise.  Useful
      as cheap screens in front of more expensive strategies.  ["fm"]
      is Pugh-tightened Fourier-Motzkin, which is integer-sound.

    New strategies can be {!register}ed at any time; cascades resolve
    names at construction. *)

val register : Strategy.t -> unit
(** Adds (or replaces) a strategy under its name. *)

val find : string -> Strategy.t option
val names : unit -> string list

val all : unit -> Strategy.t list
(** Every registered strategy, sorted by name — the introspection hook
    the differential oracle iterates over. *)

(** The built-in strategies that callers also use directly; the other
    filters are reached by name. *)

val delinearize : Strategy.t
val classic : Strategy.t
val exact : Strategy.t
val banerjee : Strategy.t
