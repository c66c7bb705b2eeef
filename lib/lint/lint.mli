(** The lint engine: run every registered rule over one source file.

    [shelley lint] (and [shelley check --lint]) sit on top of this module:
    it reads the file through the verification pipeline's one front end
    ({!Pipeline.front_end}: tolerant parse, every class extracted behind an
    exception barrier), routes the {!Validate} structural checks and the
    {!Lint_semantic} rules through the {!Rules} registry, honors inline
    suppression comments ([# shelley: disable=SY001,SY104] — end-of-line
    for that line, a standalone comment line for the next line), and
    returns plain marshal-safe diagnostics the renderers ({!Lint_render})
    and the parallel driver ({!Checker.lint_files}) consume. The semantic
    rules resolve class names in the file's own models only.

    Discipline inherited from the verification pipeline: every rule runs
    behind an exception barrier under the caller's {!Limits.t} budget — a
    blown budget becomes an SY090 diagnostic, an unexpected exception an
    SY091 diagnostic, and every other rule still runs. With the {!Obs}
    recorder enabled, each rule gets a span ([lint.<rule-name>]) and each
    finding a counter ([lint.findings.<code>]), so [--stats] and
    [--metrics-out] cover linting exactly as they cover checking. *)

type diagnostic = {
  rule : string;  (** stable code, e.g. ["SY101"] *)
  rule_name : string;  (** registry slug, e.g. ["dead-operation"] *)
  severity : Report.severity;
  file : string;
  line : int;  (** 1-based; 0 = no meaningful position *)
  class_name : string;  (** [""] for file-scope diagnostics *)
  message : string;
}
(** Marshal-safe by construction (strings, ints, a plain variant): worker
    processes send diagnostics back over the worker pool's result pipe. *)

type file_result = {
  lint_file : string;
  findings : diagnostic list;  (** active findings, sorted by (line, code) *)
  suppressed : diagnostic list;
      (** findings silenced by a [# shelley: disable] comment (kept for the
          JSON/SARIF renderers, which mark rather than drop them) *)
}

val lint_front :
  ?limits:Limits.t -> ?thresholds:Lint_semantic.thresholds -> file:string ->
  Pipeline.front -> file_result
(** Lint one parsed and extracted file ([check --lint] passes the front it
    verified). Never raises. *)

val lint_source :
  ?limits:Limits.t -> ?thresholds:Lint_semantic.thresholds -> file:string -> string ->
  file_result
(** [lint_front] of [Pipeline.front_end source]. Never raises. *)

val lint_path :
  ?limits:Limits.t -> ?thresholds:Lint_semantic.thresholds -> string -> file_result
(** Read then {!lint_source}; an unreadable path yields one SY011
    diagnostic. Never raises. *)

val file_exit_code : file_result -> int
(** The per-file exit-code contract, mirroring [shelley check]:
    3 when a rule ran out of budget (SY090), else 2 when the file could not
    be read or parsed cleanly (SY010/SY011), else 1 when an error-severity
    finding is active, else 0. Suppressed findings never count. *)

val exit_code : file_result list -> int
(** Maximum of {!file_exit_code} over the run (0 for no files). *)

val count_severity : file_result list -> Report.severity -> int
(** Active findings of one severity across the run. *)
