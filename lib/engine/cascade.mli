(** Cascades: ordered strategy pipelines.

    A cascade runs its strategies left to right and returns the first
    decision, stamped with the deciding strategy's name; if every
    strategy passes, the sound conservative result (dependent, all-[*])
    is returned.  The historical analyzer modes are preset cascades:

    - {!delin} = [["delinearize"]]
    - {!classic} = [["classic"]]
    - {!exact} = [["exact"; "delinearize"]] (the exact solver passes on
      symbolic problems and overflow, falling through to
      delinearization — exactly the old [ExactMode] fallback)

    Custom cascades compose registered strategies, e.g.
    [of_names ["gcd"; "banerjee"; "delinearize"]] screens with the cheap
    classic filters before running the paper's algorithm. *)

module Assume = Dlz_symbolic.Assume
module Problem = Dlz_deptest.Problem

type t = { name : string; steps : Strategy.t list }

val make : name:string -> Strategy.t list -> t

val of_names : string list -> (t, string) result
(** Resolves names in the {!Registry}; [Error msg] on an unknown name. *)

val delin : t
val classic : t
val exact : t

val presets : (string * t) list

val run :
  ?stats:Stats.t ->
  ?budget:Dlz_base.Budget.t ->
  ?chaos:Chaos.t ->
  env:Assume.t ->
  t ->
  Problem.t ->
  Strategy.result
(** Runs the cascade on one problem, recording per-strategy
    attempt/decision/pass counters ([stats] defaults to
    {!Stats.global}).

    This is the engine's fault boundary.  A strategy that raises —
    [Intx.Overflow], [Budget.Exhausted], [Stack_overflow], an injected
    chaos fault, anything except [Out_of_memory] / [Sys.Break] — costs
    one degradation counter and one [(strategy, reason)] entry in the
    result's [degraded] provenance; the cascade then simply moves on to
    the next strategy, falling back to the sound conservative result if
    nothing decides.  A query can therefore never abort an analysis:
    verdicts only degrade toward "dependent".

    [budget] bounds the whole cascade (strategies receive it and carve
    their internal budgets out of it); once it is exhausted the
    remaining strategies are skipped with a single [budget:*]
    degradation.  [chaos] (default {!Chaos.current}) injects
    deterministic faults at each strategy boundary — see {!Chaos}. *)

val struck : ?chaos:Chaos.t -> t -> Problem.t -> bool
(** Whether [chaos] (default {!Chaos.current}) would strike any step of
    the cascade on this problem ({!Chaos.would_strike}); counts
    nothing. *)
