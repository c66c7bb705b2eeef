(** Lowering MicroPython method bodies to the paper's IR (§3.2).

    The analysis erases values and keeps (a) control flow and (b) method
    calls on [self] fields, exactly as the paper's source-language
    abstraction prescribes: [if/elif/else] and [match/case] become
    nondeterministic choice, [for]/[while] become [loop(★)], everything else
    becomes [skip].

    Each [return] additionally becomes a distinguished *exit marker* event
    immediately before the IR [return], so that the per-exit behaviors (which
    the paper's §3.1 dependency graph links to next-operation sets) can be
    recovered from the single inference pass. [strip_markers] erases the
    markers again, giving the paper-faithful plain program. *)

type exit_info = {
  exit_index : int;  (** 0-based, in source order *)
  exit_line : int;
  exit_next : string list option;  (** as in {!Mpy_ast.return_desc} *)
  exit_has_value : bool;
}

type lowered = {
  low_name : string;  (** method name *)
  low_prog : Prog.t;  (** body with exit markers *)
  low_exits : exit_info list;
  low_warnings : string list;
      (** constructs lowered approximately ([break]/[continue] → [skip]) *)
}

val strip_markers : Prog.t -> Prog.t
(** Replace every exit-marker call by [skip] — the paper-faithful program. *)

val field_call_events : Mpy_ast.expr -> Symbol.t list
(** The [self]-field method calls inside an expression, in evaluation order
    (arguments before the call that consumes them), as [field.method]
    events. *)

val lower_method : Mpy_ast.method_def -> lowered

val lower_block : method_name:string -> Mpy_ast.block -> Prog.t * exit_info list * string list
(** Lower a bare statement list (used by tests); exits are numbered from 0. *)
