(** Shelley models: the verification view of an annotated MicroPython class.

    A model collects, per operation, the exit points (each with the set of
    operations allowed next — the [return] lists of §2.1) and the inferred
    behavior of the method body *up to that exit* as a regular expression
    over subsystem-call events (§3.2). Composite classes also carry their
    declared subsystems and temporal claims. *)

type exit_point = {
  exit_id : int;  (** 0-based, source order; the implicit fall-through exit,
                      when present, comes last *)
  exit_line : int;  (** 0 for the implicit exit *)
  next_ops : string list;  (** operations allowed next; [] = terminal *)
  has_user_value : bool;
  implicit : bool;  (** control fell off the end of the method *)
  behavior : Regex.t;
      (** subsystem-call events emitted on a run ending at this exit *)
}

type operation = {
  op_name : string;
  op_kind : Annotations.op_kind;
  op_line : int;
  exits : exit_point list;
  marked_body : Prog.t;  (** IR with exit markers (see {!Mpy_lower}) *)
  marked_behavior : Regex.t;
      (** what the usage expansion embeds: each exit's behavior followed by
          its exit marker, the implicit exit's included; inferred once from
          [marked_body] (see {!Extract.marked_behavior}) *)
  plain_body : Prog.t;  (** paper-faithful IR, markers stripped *)
  lowering_warnings : string list;
}

type t = {
  name : string;
  line : int;
  kind : [ `Base | `Composite ];
      (** [`Base] for [@sys], [`Composite] for [@sys([...])] *)
  declared_subsystems : string list;  (** the [@sys([...])] field names *)
  subsystem_fields : (string * string) list;
      (** every [self.f = C(...)] in [__init__]: field name → class name *)
  claims : (string * Ltlf.t) list;  (** raw text and parsed formula *)
  operations : operation list;
}

(** {1 Lookup} *)

val find_op : t -> string -> operation option
val op_names : t -> string list
val initial_ops : t -> operation list
val final_ops : t -> operation list

val subsystem_class : t -> string -> string option
(** Class name of a declared subsystem field. *)

val behavior_of_op : operation -> Regex.t
(** The §3.2 [infer] of the operation body (markers stripped): the union of
    all exit behaviors (and the ongoing behavior if control can fall
    through). *)

val entry_symbol : operation -> Symbol.t
(** The event marking the invocation of this operation in composite traces
    (just the operation name; never contains a dot, so it cannot collide
    with subsystem-call events). *)

val pp : Format.formatter -> t -> unit
(** Human-readable model summary (one line per exit). *)
