(** Tokens of the MicroPython subset, with source positions.

    The lexer is indentation-aware in the Python way: it emits [Newline],
    [Indent] and [Dedent] tokens from a stack of indentation columns, so the
    parser can treat blocks like bracketed ones. *)

type kind =
  | Name of string
  | Int_lit of int
  | Str_lit of string
  (* keywords *)
  | Kw_class
  | Kw_def
  | Kw_return
  | Kw_if
  | Kw_elif
  | Kw_else
  | Kw_match
  | Kw_case
  | Kw_for
  | Kw_while
  | Kw_in
  | Kw_pass
  | Kw_true
  | Kw_false
  | Kw_none
  | Kw_not
  | Kw_and
  | Kw_or
  | Kw_import
  | Kw_from
  | Kw_break
  | Kw_continue
  (* punctuation *)
  | At  (** [@] introducing a decorator *)
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Colon
  | Comma
  | Dot
  | Assign  (** [=] *)
  | Arrow  (** [->] in annotations, skipped *)
  | Operator of string  (** [==], [<], [+], … — uninterpreted by the analysis *)
  (* layout *)
  | Newline
  | Indent
  | Dedent
  | Eof

type t = {
  kind : kind;
  line : int;  (** 1-based *)
  col : int;  (** 0-based column of the first character *)
}

val describe : kind -> string
(** For error messages: ["keyword 'def'"], ["identifier \"valve\""], … *)
