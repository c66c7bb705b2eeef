(** Model extraction: annotated MicroPython class → {!Model.t} (§3).

    Runs the three steps the paper names: method dependency extraction
    (via the [return] lists), method behavior extraction (lowering to the IR
    and running the paper's [⟦·⟧] inference, recovering one behavior regex
    per exit from the exit markers), and leaves method invocation analysis
    to {!Invocation}. Extraction never fails: problems (bad annotations,
    unparseable claims, unrecognizable returns) are reported as diagnostics
    alongside a best-effort model. *)

type result = {
  model : Model.t;
  diagnostics : Report.t list;
}

val extract_class : Mpy_ast.class_def -> result

val exit_behaviors_of_marked : method_name:string -> Prog.t -> (int * Regex.t) list * Regex.t
(** Split the inferred denotation of a marked body into per-exit behaviors
    (keyed by exit index, markers stripped) and the ongoing (fall-through)
    behavior. Exposed for tests. *)

val marked_behavior : method_name:string -> Prog.t -> Model.exit_point list -> Regex.t
(** [marked_behavior ~method_name body exits] is {!Model.operation}'s
    [marked_behavior] for a marked body and its exits: for a model built
    some other way than by {!extract_class}, which computes it as it
    extracts. *)
