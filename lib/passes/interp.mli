(** Reference interpreter with memory-access tracing: the one executor
    of an {!Dlz_ir.Ast.program}.

    The test suite uses it to prove passes semantics-preserving: two
    programs are access-equivalent when their traces coincide after
    block-id normalization.  [Dlz_driver.Dynamic] folds the same access
    stream into the dependences that happen at run time.  Memory is
    modelled FORTRAN-style: each array occupies a storage block at a
    column-major linear address; COMMON members follow each other in
    their block, and an EQUIVALENCE gives its anchor elements one
    address (the layout is {!Storage.layout}'s), so a trace is a sequence of (block, address, read/write)
    events independent of how references are spelled — exactly the
    invariant linearization must preserve. *)

type kind = Read | Write
type event = { block : string; addr : int; kind : kind }

type instance = {
  stmt : int;
      (** The assignment, numbered in program order as
          {!Dlz_ir.Access} numbers statements. *)
  iter : (string * int) list;
      (** Enclosing loop variables and their values, outermost first. *)
}
(** One execution of an assignment statement. *)

type error =
  | Out_of_fuel of int  (** The step budget ran out: not an input error. *)
  | Zero_step
  | Undeclared_array of string
  | Arity_mismatch of string
  | Subscript_out_of_range of { array : string; sub : int; lo : int; hi : int }
  | Non_constant_bound of string
  | Empty_dimension of string
  | Conflicting_equivalence of string
      (** Two EQUIVALENCE groups put the array at different addresses. *)

exception Error of error
(** Typed execution failure: callers can tell budget exhaustion
    ([Out_of_fuel]) apart from malformed input (everything else).  An
    exception printer renders it in words. *)

val iter :
  ?syms:(string * int) list ->
  ?fuel:int ->
  (instance option -> event -> unit) ->
  Dlz_ir.Ast.program ->
  unit
(** Executes the program and calls the function on every array access,
    in execution order (reads of a statement before its write), with the
    statement instance that made it, or [None] for a read in a DO
    bound or step.  [syms] supplies values for free scalars (e.g. [N]);
    [fuel] bounds the number of executed statements (default
    20_000_000).  Raises {!Error}. *)

val run :
  ?syms:(string * int) list -> ?fuel:int -> Dlz_ir.Ast.program -> event list
(** The array-access trace of {!iter}, without the instances. *)

val normalized : event list -> (int * int * kind) list
(** Renames blocks to first-occurrence indices so traces of programs
    that renamed arrays (e.g. after linearization) compare equal. *)

val equivalent : event list -> event list -> bool
