type kind =
  | Name of string
  | Int_lit of int
  | Str_lit of string
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
  | At
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Colon
  | Comma
  | Dot
  | Assign
  | Arrow
  | Operator of string
  | Newline
  | Indent
  | Dedent
  | Eof

type t = {
  kind : kind;
  line : int;
  col : int;
}

let describe = function
  | Name s -> Printf.sprintf "identifier %S" s
  | Int_lit n -> Printf.sprintf "integer %d" n
  | Str_lit s -> Printf.sprintf "string %S" s
  | Kw_class -> "keyword 'class'"
  | Kw_def -> "keyword 'def'"
  | Kw_return -> "keyword 'return'"
  | Kw_if -> "keyword 'if'"
  | Kw_elif -> "keyword 'elif'"
  | Kw_else -> "keyword 'else'"
  | Kw_match -> "keyword 'match'"
  | Kw_case -> "keyword 'case'"
  | Kw_for -> "keyword 'for'"
  | Kw_while -> "keyword 'while'"
  | Kw_in -> "keyword 'in'"
  | Kw_pass -> "keyword 'pass'"
  | Kw_true -> "'True'"
  | Kw_false -> "'False'"
  | Kw_none -> "'None'"
  | Kw_not -> "keyword 'not'"
  | Kw_and -> "keyword 'and'"
  | Kw_or -> "keyword 'or'"
  | Kw_import -> "keyword 'import'"
  | Kw_from -> "keyword 'from'"
  | Kw_break -> "keyword 'break'"
  | Kw_continue -> "keyword 'continue'"
  | At -> "'@'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | Colon -> "':'"
  | Comma -> "','"
  | Dot -> "'.'"
  | Assign -> "'='"
  | Arrow -> "'->'"
  | Operator op -> Printf.sprintf "operator %S" op
  | Newline -> "end of line"
  | Indent -> "indentation"
  | Dedent -> "dedentation"
  | Eof -> "end of input"
