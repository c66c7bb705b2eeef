(** The end-to-end Shelley verification pipeline, and the one front end
    every command reads sources through.

    {!front_end}: parse → extract each class (in file order, so substrates
    can precede the composites that use them). [check], [lint],
    [check --lint] and the inspection commands consume its {!front}, so a
    file is parsed and extracted once per run. {!verify}: validate
    structure → check subsystem usage → check temporal claims → run
    invocation analysis → check refinement. All findings are returned as
    {!Report.t} values; {!verified} is the paper's notion of a program
    passing verification (no [Error]-severity reports).

    {b Fault isolation}: each class's extraction and each per-class check
    run behind an exception barrier. A step that exhausts its {!Limits.t}
    budget yields a {!Report.Resource_limit} report; one that raises
    anything else yields a {!Report.Internal_error} report. In both cases
    the remaining checks and classes still run — no exception escapes
    {!front_end} or {!verify}. *)

type front = {
  source : string;
  syntax : Report.t list;  (** {!Report.Syntax_error}s, in source order *)
  classes : (Mpy_ast.class_def * (Extract.result, Report.t) Stdlib.result) list;
      (** each parsed class with its extraction, or the report (check
          ["extract"]) of the barrier that stopped it *)
  models : Model.t list;  (** the extracted models, in source order *)
}

type result = {
  models : Model.t list;  (** extraction results, in source order *)
  reports : Report.t list;
}

val semantics_version : string
(** Version tag of the verification {e semantics}: what the pipeline checks
    and how it words its reports. Content-addressed cache keys
    ({!Checker.check_cache_key}) include it, so bump it in the same change
    that alters any report text, adds a check, or changes the exit-code
    mapping — stale cached verdicts then miss instead of replaying. *)

val read_file : string -> string
(** {!Inputs.read_file}, which {!Model_io.load} reads through too.
    @raise Sys_error when the file cannot be read. *)

val front_end : string -> front
(** Parse with {!Mpy_parser.parse_program_tolerant} and extract every class
    that parsed. Never raises. *)

val find_model : Model.t list -> Usage.env
(** Lookup by class name ({!Inputs.find_model}); [find_model front.models]
    is a file's own environment. *)

val verify : ?extra_env:Usage.env -> ?limits:Limits.t -> front -> result
(** The syntax reports, then per class its extraction failure, or its
    extraction diagnostics and check reports. Class names resolve in the
    file's own models first, then in [extra_env] — typically models loaded
    from [.shelley] files ({!Model_io.env_of_files}). [limits] (default
    {!Limits.default}) bounds the automata-theoretic checks. *)

val verify_source : ?extra_env:Usage.env -> ?limits:Limits.t -> string -> result
(** [verify (front_end source)]. Never raises. *)

val verify_source_exn : ?extra_env:Usage.env -> ?limits:Limits.t -> string -> result
(** Strict variant: parse with {!Mpy_parser.parse_program}.
    @raise Mpy_parser.Parse_error / Mpy_lexer.Lex_error on bad input. *)

val verified : result -> bool
(** No error-severity report. *)
