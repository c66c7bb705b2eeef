(** Model metrics — sizes of everything the verifier builds for a class.

    Used by the CLI ([shelley model --stats]), the irrigation example's
    inventory, and the scaling benchmarks; also a convenient regression
    canary (a change that suddenly doubles automaton sizes shows up here). *)

type t = {
  class_name : string;
  operations : int;
  exit_points : int;
  subsystems : int;
  claims : int;
  ir_nodes : int;  (** total AST nodes of all lowered bodies *)
  usage_states : int;
  usage_transitions : int;
  usage_min_dfa_states : int;  (** canonical protocol size *)
  expanded_states : int;
  expanded_transitions : int;
  usages_upto_6 : int;  (** distinct complete usages of length ≤ 6 *)
}

val of_model : Model.t -> t
(** When the {!Obs} recorder is enabled, also runs under a ["stats"] span and
    feeds every size below into the run's counters (keys as in
    {!to_counters}). *)

val to_counters : t -> (string * int) list
(** The numeric fields as [("model." ^ field, value)] pairs, in declaration
    order — the bridge between model metrics and the {!Obs} counter
    namespace. *)

val pp_row : Format.formatter -> t -> unit
(** One line, for tables. *)

val header : string
(** Column header matching {!pp_row}. *)
