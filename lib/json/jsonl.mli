(** The one JSON module: every JSON the tool writes, and the parser.

    One value type, one string escaper and one number rule serve two
    layouts: a file is pretty, a protocol line is compact. {!to_string}
    prints one line — the [shelley serve] wire protocol (newline-delimited
    JSON-RPC), the access log and [client] output — with no raw newline
    inside, so a frame boundary is always a ['\n']. {!to_string_pretty}
    prints lint and claims JSON and SARIF, [--metrics-out], [--trace-out],
    [cache stats --json] and the [BENCH_*.json] files. Strings escape
    ["\""], ["\\"] and every control character. An integral number prints
    without a decimal point ([Num 3.] → ["3"]), any other finite number as
    the first of [%.15g]/[%.16g]/[%.17g] that reads back equal, and a
    non-finite number as [null]. [parse] gives back what either printer
    emits (non-finite numbers as [Null]) and accepts ordinary interchange
    JSON (whitespace, [\uXXXX] escapes). The project carries no JSON
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num (float_of_int n)]. *)

val to_string : t -> string
(** The compact layout: one line, no trailing newline. *)

val to_string_pretty : t -> string
(** Two-space indent, ["key": value], [\[\]] and [{}] when empty, and a
    trailing newline. Fields print in the order given. *)

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed; trailing
    non-whitespace is an error). Never raises. *)

(** {1 Accessors} — each returns [None] on a type mismatch. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k]; [None] otherwise. *)

val to_str : t -> string option
val to_num : t -> float option
val to_bool : t -> bool option
val to_list : t -> t list option

val to_obj : t -> (string * t) list option
(** The field list of an [Obj], in document order — for consumers that
    walk an object they did not shape themselves, like the client's
    [--watch] delta rendering over a [metrics] snapshot. *)

val mem_obj : string -> t -> (string * t) list option
(** [to_obj] of a member: nested-object access in one step. *)

val mem_str : string -> t -> string option
val mem_num : string -> t -> float option

val mem_int : string -> t -> int option
(** [mem_num] truncated to [int] — the single conversion point for protocol
    fields that are semantically integers ([priority], [retry_after_ms],
    budget knobs). *)

val mem_bool : ?default:bool -> string -> t -> bool
(** Missing member or type mismatch yields [default] (default [false]). *)

val mem_str_list : string -> t -> string list option
(** [Some strings] when the member is an array of strings; [None] when
    absent or otherwise shaped. *)
