type severity =
  | Error
  | Warning
  | Info

type usage_failure =
  | Not_allowed of string
  | Not_final of string

type t =
  | Invalid_subsystem_usage of {
      class_name : string;
      field : string;
      subsystem_class : string;
      counterexample : Trace.t;
      projected : string list;
      failure : usage_failure;
    }
  | Requirement_failure of {
      class_name : string;
      formula : string;
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
  | Resource_limit of {
      class_name : string;
      check : string;
      resource : string;
      limit : int;
    }
  | Internal_error of {
      class_name : string;
      check : string;
      message : string;
    }
  | Timeout of {
      unit_name : string;
      seconds : float;
      attempts : int;
    }
  | Worker_crashed of {
      unit_name : string;
      reason : string;
      attempts : int;
    }

let severity = function
  | Invalid_subsystem_usage _ | Requirement_failure _ -> Error
  | Structural { severity; _ } -> severity
  | Syntax_error _ | Resource_limit _ | Internal_error _ | Timeout _ | Worker_crashed _ ->
    Error

let class_name = function
  | Invalid_subsystem_usage { class_name; _ }
  | Requirement_failure { class_name; _ }
  | Structural { class_name; _ }
  | Resource_limit { class_name; _ }
  | Internal_error { class_name; _ } ->
    class_name
  | Timeout { unit_name; _ } | Worker_crashed { unit_name; _ } -> unit_name
  | Syntax_error _ -> "<source>"

let structural ?line severity ~class_name message =
  Structural { class_name; line; severity; message }

let syntax_error ~line ~col message = Syntax_error { line; col; message }

let is_syntax_error = function
  | Syntax_error _ -> true
  | Invalid_subsystem_usage _ | Requirement_failure _ | Structural _ | Resource_limit _
  | Internal_error _ | Timeout _ | Worker_crashed _ ->
    false

let is_resource_limit = function
  | Resource_limit _ | Timeout _ -> true
  | Invalid_subsystem_usage _ | Requirement_failure _ | Structural _ | Syntax_error _
  | Internal_error _ | Worker_crashed _ ->
    false

let pp_severity fmt = function
  | Error -> Format.pp_print_string fmt "Error"
  | Warning -> Format.pp_print_string fmt "Warning"
  | Info -> Format.pp_print_string fmt "Info"

(* The projected subsystem calls with the offending operation bracketed, in
   the paper's style: "test, >open< (not final)". *)
let pp_projected fmt (projected, failure) =
  (* The failure is always detected at the end of the shortest
     counterexample, so the offending call is the last one. *)
  let note =
    match failure with
    | Not_allowed _ -> "not allowed here"
    | Not_final _ -> "not final"
  in
  let n = List.length projected in
  List.iteri
    (fun i op ->
      if i > 0 then Format.pp_print_string fmt ", ";
      if i = n - 1 then Format.fprintf fmt ">%s< (%s)" op note
      else Format.pp_print_string fmt op)
    projected

let pp fmt = function
  | Invalid_subsystem_usage r ->
    Format.fprintf fmt
      "@[<v>Error in specification: INVALID SUBSYSTEM USAGE@,\
       Counter example: %a@,\
       Subsystems errors:@,\
      \  * %s '%s': %a@]"
      Trace.pp r.counterexample r.subsystem_class r.field pp_projected
      (r.projected, r.failure)
  | Requirement_failure r ->
    Format.fprintf fmt
      "@[<v>Error in specification: FAIL TO MEET REQUIREMENT@,\
       Formula: %s@,\
       Counter example: %a@]"
      r.formula Trace.pp r.counterexample
  | Structural r ->
    Format.fprintf fmt "%a in class %s%s: %s" pp_severity r.severity r.class_name
      (match r.line with
      | Some l -> Printf.sprintf " (line %d)" l
      | None -> "")
      r.message
  | Syntax_error r ->
    Format.fprintf fmt "Error: syntax error at line %d, col %d: %s" r.line r.col r.message
  | Resource_limit r ->
    Format.fprintf fmt
      "@[<v>Error in verification: RESOURCE LIMIT EXCEEDED@,\
       Class: %s@,\
       Check: %s (skipped; other checks still ran)@,\
       Budget: %s (limit %d)@]"
      r.class_name r.check r.resource r.limit
  | Internal_error r ->
    Format.fprintf fmt
      "@[<v>Error in verification: INTERNAL CHECK FAILURE@,\
       Class: %s@,\
       Check: %s (skipped; other checks still ran)@,\
       Failure: %s@]"
      r.class_name r.check r.message
  | Timeout r ->
    Format.fprintf fmt
      "@[<v>Error in verification: WALL-CLOCK DEADLINE EXCEEDED@,\
       Unit: %s@,\
       Deadline: %gs per attempt (%d attempt%s; the worker was killed; other \
       units unaffected)@]"
      r.unit_name r.seconds r.attempts
      (if r.attempts = 1 then "" else "s")
  | Worker_crashed r ->
    Format.fprintf fmt
      "@[<v>Error in verification: WORKER CRASHED@,\
       Unit: %s@,\
       Failure: %s (%d attempt%s; other units unaffected)@]"
      r.unit_name r.reason r.attempts
      (if r.attempts = 1 then "" else "s")

let to_string t = Format.asprintf "%a" pp t

let errors reports = List.filter (fun r -> severity r = Error) reports
