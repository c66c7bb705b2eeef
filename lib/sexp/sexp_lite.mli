(** A small, dependency-free S-expression reader/printer.

    Used by [Model_io] to persist extracted models (so substrates can be
    verified once and shared). Atoms that contain whitespace, parentheses,
    quotes or are empty are printed as double-quoted strings with escapes
    for backslash, quote, newline and tab; anything else prints bare. The
    reader accepts both forms plus semicolon-to-end-of-line comments. *)

type t =
  | Atom of string
  | List of t list

val atom : string -> t
val list : t list -> t

(** {1 Printing} *)

val to_string : t -> string
(** Compact single-line form. *)

val to_string_pretty : t -> string
(** Indented multi-line form (2-space indent, atoms-only lists kept on one
    line). *)

(** {1 Reading} *)

exception Parse_error of string

val parse : string -> t
(** Exactly one S-expression (surrounding whitespace/comments allowed).
    @raise Parse_error otherwise. *)

(** {1 Structure helpers}

    Conventions for records encoded as [(field value…)] lists. *)

val field : string -> t -> t list option
(** [field name sexp] finds the first sub-form whose head atom is [name]
    and returns its remainder, e.g. the [v1, v2] of [(name v1 v2)]. *)

val field_atom : string -> t -> string option
(** The remainder must be exactly one atom. *)

val field_one : string -> t -> t option
(** The remainder must be exactly one S-expression. *)
