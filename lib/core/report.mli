(** Verification reports, formatted like the paper's transcripts (§2.2). *)

type severity =
  | Error
  | Warning
  | Info

type usage_failure =
  | Not_allowed of string
      (** the bracketed operation is not permitted at that point *)
  | Not_final of string
      (** the trace may stop after the bracketed operation, which is not
          final in the subsystem's specification *)

type t =
  | Invalid_subsystem_usage of {
      class_name : string;
      field : string;  (** e.g. ["a"] *)
      subsystem_class : string;  (** e.g. ["Valve"] *)
      counterexample : Trace.t;
          (** mixed trace of operation entries and subsystem calls, e.g.
              [open_a, a.test, a.open] *)
      projected : string list;  (** the field's own calls, unqualified *)
      failure : usage_failure;
    }
  | Requirement_failure of {
      class_name : string;
      formula : string;  (** as written in the [@claim] *)
      counterexample : Trace.t;
    }
  | Structural of {
      class_name : string;
      line : int option;
      severity : severity;
      message : string;
    }
  | Syntax_error of {
      line : int;
      col : int;
      message : string;
    }
      (** A lexical or syntax error recovered by the tolerant parser; the
          rest of the file was still analyzed. *)
  | Resource_limit of {
      class_name : string;
      check : string;  (** which pipeline check was cut short, e.g. ["usage"] *)
      resource : string;  (** which budget ran out, e.g. ["entailment configurations"] *)
      limit : int;
    }
      (** A check exceeded its {!Limits.t} budget and was skipped; every
          other check still ran. *)
  | Internal_error of {
      class_name : string;
      check : string;
      message : string;
    }
      (** A check raised an unexpected exception; it was skipped and every
          other check still ran. *)
  | Timeout of {
      unit_name : string;  (** the file (or class) whose worker was killed *)
      seconds : float;  (** the configured per-attempt wall-clock deadline *)
      attempts : int;  (** 2 when the reduced-budget retry also timed out *)
    }
      (** A verification unit exceeded its wall-clock deadline
          ({!Limits.t.deadline}) and its worker process was killed; every
          other unit still completed. Counts as a resource limit for the
          exit-code contract (exit 3). *)
  | Worker_crashed of {
      unit_name : string;
      reason : string;  (** e.g. ["killed by SIGSEGV"] or ["exited with code 42"] *)
      attempts : int;  (** 2 when the reduced-budget retry also crashed *)
    }
      (** A verification unit's worker process died without producing a
          result (fatal signal, OOM kill, hard exit); every other unit still
          completed. *)

val severity : t -> severity
(** [Syntax_error], [Resource_limit], [Internal_error], [Timeout] and
    [Worker_crashed] are [Error]s: verification did not complete, so the
    program cannot be claimed verified. *)

val class_name : t -> string
(** ["<source>"] for [Syntax_error] (no class context); the unit name (file
    path or class) for [Timeout] / [Worker_crashed]. *)

val structural : ?line:int -> severity -> class_name:string -> string -> t

val syntax_error : line:int -> col:int -> string -> t

val is_syntax_error : t -> bool

val is_resource_limit : t -> bool
(** True for [Resource_limit] and [Timeout]: both mean a budget (fuel or
    wall clock) ran out, and both map to exit code 3. *)

val pp : Format.formatter -> t -> unit
(** Paper-style rendering, e.g.
    {v
Error in specification: INVALID SUBSYSTEM USAGE
Counter example: open_a, a.test, a.open
Subsystems errors:
  * Valve 'a': test, >open< (not final)
    v} *)

val to_string : t -> string

val errors : t list -> t list
(** Only the [Error]-severity reports. *)
