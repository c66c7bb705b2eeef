open Testutil

(* The paper's Listing 2.1. *)
let valve_source =
  {|
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.clean = Pin(28, OUT)
        self.status = Pin(29, IN)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        self.clean.on()
        return ["test"]
|}

(* The paper's Listing 2.2. *)
let bad_sector_source =
  {|
@claim("(!a.open) W b.open")
@sys(["a", "b"])
class BadSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["open_b"]
            case ["clean"]:
                self.a.clean()
                print("a failed")
                return []

    @op_final
    def open_b(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                self.a.close()
                self.b.close()
                return []
            case ["clean"]:
                self.b.clean()
                print("b failed")
                self.a.close()
                return []
|}

(* --- Lexer ------------------------------------------------------------------- *)

let kinds source = List.map (fun t -> t.Mpy_token.kind) (Mpy_lexer.tokenize source)

let test_lex_simple_line () =
  match kinds "x = 1\n" with
  | [ Name "x"; Assign; Int_lit 1; Newline; Eof ] -> ()
  | ks -> Alcotest.failf "unexpected tokens: %s" (String.concat "; " (List.map Mpy_token.describe ks))

let test_lex_indentation () =
  let source = "if x:\n    y()\nz()\n" in
  match kinds source with
  | [
   Kw_if; Name "x"; Colon; Newline; Indent; Name "y"; Lparen; Rparen; Newline; Dedent;
   Name "z"; Lparen; Rparen; Newline; Eof;
  ] ->
    ()
  | ks -> Alcotest.failf "unexpected tokens: %s" (String.concat "; " (List.map Mpy_token.describe ks))

let test_lex_nested_dedents () =
  let source = "if a:\n    if b:\n        c()\nd()\n" in
  let dedents = List.filter (fun k -> k = Mpy_token.Dedent) (kinds source) in
  Alcotest.(check int) "two dedents" 2 (List.length dedents)

let test_lex_blank_lines_and_comments () =
  let source = "x()\n\n# comment only\n\ny()\n" in
  match kinds source with
  | [ Name "x"; Lparen; Rparen; Newline; Name "y"; Lparen; Rparen; Newline; Eof ] -> ()
  | ks -> Alcotest.failf "unexpected tokens: %s" (String.concat "; " (List.map Mpy_token.describe ks))

let test_lex_implicit_line_joining () =
  (* No layout tokens inside brackets. *)
  let source = "x = [1,\n     2]\n" in
  let layout =
    List.filter (fun k -> k = Mpy_token.Indent || k = Mpy_token.Dedent) (kinds source)
  in
  Alcotest.(check int) "no indents inside brackets" 0 (List.length layout)

let test_lex_string_escapes () =
  match kinds {|s = "a\nb"|} with
  | [ Name "s"; Assign; Str_lit "a\nb"; Newline; Eof ] -> ()
  | ks -> Alcotest.failf "unexpected tokens: %s" (String.concat "; " (List.map Mpy_token.describe ks))

let test_lex_unterminated_string () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Mpy_lexer.tokenize "s = \"oops\n");
       false
     with Mpy_lexer.Lex_error _ -> true)

let test_lex_inconsistent_dedent () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Mpy_lexer.tokenize "if a:\n        x()\n   y()\n");
       false
     with Mpy_lexer.Lex_error _ -> true)

let test_lex_eof_dedents () =
  let source = "if a:\n    x()" in
  let ks = kinds source in
  Alcotest.(check bool) "ends with dedent then eof" true
    (match List.rev ks with
    | Eof :: Dedent :: _ -> true
    | _ -> false)

let test_lex_decorator () =
  match kinds "@sys\nclass C:\n    pass\n" with
  | At :: Name "sys" :: Newline :: Kw_class :: _ -> ()
  | ks -> Alcotest.failf "unexpected tokens: %s" (String.concat "; " (List.map Mpy_token.describe ks))

let test_lex_positions () =
  let tokens = Mpy_lexer.tokenize "x = 1\ny = 2\n" in
  let second_line = List.filter (fun t -> t.Mpy_token.line = 2) tokens in
  Alcotest.(check bool) "tokens on line 2" true (List.length second_line >= 3)

(* --- Parser ----------------------------------------------------------------- *)

let test_parse_valve () =
  let cls = Mpy_parser.parse_class valve_source in
  Alcotest.(check string) "name" "Valve" cls.Mpy_ast.cls_name;
  Alcotest.(check int) "five methods" 5 (List.length cls.Mpy_ast.cls_methods);
  Alcotest.(check (list string)) "decorators" [ "sys" ]
    (List.map (fun d -> d.Mpy_ast.dec_name) cls.Mpy_ast.cls_decorators)

let test_parse_valve_method_decorators () =
  let cls = Mpy_parser.parse_class valve_source in
  let dec_of name =
    match Mpy_ast.find_method cls name with
    | Some m -> List.map (fun d -> d.Mpy_ast.dec_name) m.Mpy_ast.meth_decorators
    | None -> Alcotest.failf "method %s not found" name
  in
  Alcotest.(check (list string)) "test" [ "op_initial" ] (dec_of "test");
  Alcotest.(check (list string)) "open" [ "op" ] (dec_of "open");
  Alcotest.(check (list string)) "close" [ "op_final" ] (dec_of "close");
  Alcotest.(check (list string)) "init undecorated" [] (dec_of "__init__")

let test_parse_valve_returns () =
  let cls = Mpy_parser.parse_class valve_source in
  let m = Option.get (Mpy_ast.find_method cls "test") in
  let returns = Mpy_ast.returns_of_method m in
  Alcotest.(check int) "two exits" 2 (List.length returns);
  match returns with
  | [ r1; r2 ] ->
    Alcotest.(check (option (list string))) "first" (Some [ "open" ]) r1.Mpy_ast.ret_next;
    Alcotest.(check (option (list string))) "second" (Some [ "clean" ]) r2.Mpy_ast.ret_next
  | _ -> assert false

let test_parse_bad_sector () =
  let cls = Mpy_parser.parse_class bad_sector_source in
  Alcotest.(check string) "name" "BadSector" cls.Mpy_ast.cls_name;
  Alcotest.(check (list string)) "decorators" [ "claim"; "sys" ]
    (List.map (fun d -> d.Mpy_ast.dec_name) cls.Mpy_ast.cls_decorators);
  let claim = List.hd cls.Mpy_ast.cls_decorators in
  (match claim.Mpy_ast.dec_args with
  | [ Mpy_ast.Str s ] -> Alcotest.(check string) "claim text" "(!a.open) W b.open" s
  | _ -> Alcotest.fail "claim argument shape");
  let sys = List.nth cls.Mpy_ast.cls_decorators 1 in
  match sys.Mpy_ast.dec_args with
  | [ Mpy_ast.List [ Mpy_ast.Str "a"; Mpy_ast.Str "b" ] ] -> ()
  | _ -> Alcotest.fail "sys argument shape"

let test_parse_match_patterns () =
  let cls = Mpy_parser.parse_class bad_sector_source in
  let m = Option.get (Mpy_ast.find_method cls "open_a") in
  match m.Mpy_ast.meth_body with
  | [ { stmt = Mpy_ast.Match (scrutinee, cases); _ } ] ->
    (match scrutinee with
    | Mpy_ast.Call (Mpy_ast.Attr (Mpy_ast.Attr (Mpy_ast.Name "self", "a"), "test"), []) -> ()
    | e -> Alcotest.failf "unexpected scrutinee %s" (Format.asprintf "%a" Mpy_ast.pp_expr e));
    Alcotest.(check int) "two cases" 2 (List.length cases);
    (match List.map fst cases with
    | [ Mpy_ast.Pat_list [ "open" ]; Mpy_ast.Pat_list [ "clean" ] ] -> ()
    | _ -> Alcotest.fail "case patterns")
  | _ -> Alcotest.fail "body shape"

let test_parse_return_tuple () =
  let source = "class C:\n    def m(self):\n        return [\"close\"], 2\n" in
  let cls = Mpy_parser.parse_class source in
  let m = Option.get (Mpy_ast.find_method cls "m") in
  match Mpy_ast.returns_of_method m with
  | [ { ret_next = Some [ "close" ]; ret_has_value = true; _ } ] -> ()
  | _ -> Alcotest.fail "tuple return not recognized"

let test_parse_while_for () =
  let source =
    "class C:\n    def m(self):\n        while self.p.ready():\n            self.p.poll()\n        for i in range(3):\n            self.p.tick()\n        return []\n"
  in
  let cls = Mpy_parser.parse_class source in
  let m = Option.get (Mpy_ast.find_method cls "m") in
  Alcotest.(check int) "three statements" 3 (List.length m.Mpy_ast.meth_body)

let test_parse_errors_have_positions () =
  let source = "class C:\n    def m(self):\n        try:\n            pass\n" in
  (try
     ignore (Mpy_parser.parse_program source);
     Alcotest.fail "expected a parse error"
   with
  | Mpy_parser.Parse_error (_, line, _) -> Alcotest.(check bool) "line recorded" true (line >= 3)
  | Mpy_lexer.Lex_error _ -> ())

(* Table-driven corpus of malformed sources with the *exact* (line, col) the
   lexer/parser must blame, plus a fragment of the message. Positions are
   1-based lines and 0-based columns, matching the token positions. *)
type expected_error =
  | Lex of int * int * string
  | Parse of int * int * string

let position_corpus =
  [
    ("unterminated string dq", "s = \"oops\nx = 1\n", Lex (1, 4, "unterminated string"));
    ("unterminated string sq", "s = 'oops\n", Lex (1, 4, "unterminated string"));
    ("unterminated string at eof", "s = \"oops", Lex (1, 4, "unterminated string"));
    ( "unterminated string second line",
      "x = 1\ns = \"oops\n",
      Lex (2, 4, "unterminated string") );
    ("inconsistent dedent", "if a:\n        x()\n   y()\n", Lex (3, 3, "dedent"));
    ("unexpected character", "x = 1\ny = $\n", Lex (2, 4, "unexpected character '$'"));
    ("class missing colon", "class C\n    pass\n", Parse (1, 7, "expected ':'"));
    ( "def missing colon",
      "class C:\n    def m(self)\n        return []\n",
      Parse (2, 15, "expected ':'") );
    ( "nested def",
      "class C:\n    def m(self):\n        def h():\n            pass\n",
      Parse (3, 8, "nested function definitions") );
    ("bad match pattern", "class C:\n    def m(self):\n        match x:\n            case !: pass\n",
      Lex (4, 17, "unexpected character '!'"));
    ("dangling expression", "x = )\n", Parse (1, 4, "expected an expression"));
  ]

let test_error_positions_exact () =
  List.iter
    (fun (name, source, expected) ->
      let fail_got kind line col msg =
        Alcotest.failf "%s: got %s at %d:%d (%s)" name kind line col msg
      in
      match Mpy_parser.parse_program source with
      | _ -> Alcotest.failf "%s: expected an error" name
      | exception Mpy_lexer.Lex_error (msg, line, col) -> (
        match expected with
        | Lex (el, ec, fragment) ->
          Alcotest.(check (pair int int)) (name ^ ": position") (el, ec) (line, col);
          Alcotest.(check bool) (name ^ ": message") true (Testutil.contains msg fragment)
        | Parse _ -> fail_got "Lex_error" line col msg)
      | exception Mpy_parser.Parse_error (msg, line, col) -> (
        match expected with
        | Parse (el, ec, fragment) ->
          Alcotest.(check (pair int int)) (name ^ ": position") (el, ec) (line, col);
          Alcotest.(check bool) (name ^ ": message") true (Testutil.contains msg fragment)
        | Lex _ -> fail_got "Parse_error" line col msg))
    position_corpus

(* The tolerant parser must blame the same positions through its diagnostics. *)
let test_tolerant_diagnostics_same_positions () =
  List.iter
    (fun (name, source, expected) ->
      let _, diags = Mpy_parser.parse_program_tolerant source in
      let el, ec =
        match expected with
        | Lex (l, c, _) | Parse (l, c, _) -> (l, c)
      in
      Alcotest.(check bool)
        (name ^ ": diagnosed at same position")
        true
        (List.exists
           (fun d -> d.Mpy_parser.diag_line = el && d.Mpy_parser.diag_col = ec)
           diags))
    position_corpus

let test_parse_nested_def_rejected () =
  let source = "class C:\n    def m(self):\n        def helper():\n            pass\n" in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Mpy_parser.parse_program source);
       false
     with Mpy_parser.Parse_error _ -> true)

let test_parse_program_toplevel () =
  let source = "import machine\n\nv = Valve()\nv.test()\n" in
  let prog = Mpy_parser.parse_program source in
  Alcotest.(check int) "no classes" 0 (List.length prog.Mpy_ast.prog_classes);
  Alcotest.(check int) "three top-level stmts" 3 (List.length prog.Mpy_ast.prog_toplevel)

let test_parse_expression () =
  match Mpy_parser.parse_expression "self.a.test()" with
  | Mpy_ast.Call (Mpy_ast.Attr (Mpy_ast.Attr (Mpy_ast.Name "self", "a"), "test"), []) -> ()
  | e -> Alcotest.failf "unexpected expression %s" (Format.asprintf "%a" Mpy_ast.pp_expr e)

let test_parse_operators () =
  match Mpy_parser.parse_expression "1 + 2 * 3 == 7 and not x" with
  | Mpy_ast.Binop ("and", Mpy_ast.Binop ("==", _, _), Mpy_ast.Unop ("not", _)) -> ()
  | e -> Alcotest.failf "unexpected precedence: %s" (Format.asprintf "%a" Mpy_ast.pp_expr e)

(* --- Lowering ----------------------------------------------------------------- *)

let lower_method_of source name =
  let cls = Mpy_parser.parse_class source in
  Mpy_lower.lower_method (Option.get (Mpy_ast.find_method cls name))

let test_lower_valve_open () =
  let lowered = lower_method_of valve_source "open" in
  (* self.control.on() then return ["close"]: event, marker, return. *)
  let plain = Mpy_lower.strip_markers lowered.Mpy_lower.low_prog in
  Alcotest.(check bool) "control.on then return" true
    (Semantics.derivable Semantics.Returned (tr [ "control.on" ]) plain);
  Alcotest.(check int) "one exit" 1 (List.length lowered.Mpy_lower.low_exits)

let test_lower_valve_test_branches () =
  let lowered = lower_method_of valve_source "test" in
  let plain = Mpy_lower.strip_markers lowered.Mpy_lower.low_prog in
  (* Either branch reads the status pin then returns. *)
  Alcotest.(check bool) "status.value then return" true
    (Semantics.derivable Semantics.Returned (tr [ "status.value" ]) plain);
  Alcotest.(check int) "two exits" 2 (List.length lowered.Mpy_lower.low_exits)

let test_lower_exit_markers_distinct () =
  let lowered = lower_method_of valve_source "test" in
  let markers =
    Symbol.Set.filter
      (fun s -> Symbol.exit_marker s <> None)
      (Prog.calls lowered.Mpy_lower.low_prog)
  in
  Alcotest.(check int) "two distinct markers" 2 (Symbol.Set.cardinal markers)

let test_exit_marker_roundtrip () =
  let m = Symbol.method_exit ~method_name:"open_a" 3 in
  Alcotest.(check (option (pair string int))) "roundtrip" (Some ("open_a", 3))
    (Symbol.exit_marker m);
  Alcotest.(check (option (pair string int))) "ordinary symbol" None
    (Symbol.exit_marker (sym "a.test"))

let test_field_call_events_order () =
  let e = Mpy_parser.parse_expression "self.a.combine(self.b.get(), self.c.get())" in
  Alcotest.(check (list string)) "arguments before call"
    [ "b.get"; "c.get"; "a.combine" ]
    (List.map Symbol.name (Mpy_lower.field_call_events e))

let test_field_call_ignores_non_fields () =
  let e = Mpy_parser.parse_expression "print(len(x), self.a.poll())" in
  Alcotest.(check (list string)) "only field calls" [ "a.poll" ]
    (List.map Symbol.name (Mpy_lower.field_call_events e))

let test_lower_match_is_choice () =
  let lowered = lower_method_of bad_sector_source "open_a" in
  let plain = Mpy_lower.strip_markers lowered.Mpy_lower.low_prog in
  Alcotest.(check bool) "open branch" true
    (Semantics.derivable Semantics.Returned (tr [ "a.test"; "a.open" ]) plain);
  Alcotest.(check bool) "clean branch" true
    (Semantics.derivable Semantics.Returned (tr [ "a.test"; "a.clean" ]) plain);
  Alcotest.(check bool) "branches don't mix" false
    (Semantics.in_behavior (tr [ "a.test"; "a.open"; "a.clean" ]) plain)

let test_lower_while_is_loop () =
  let source =
    "class C:\n    def m(self):\n        while self.p.more():\n            self.p.next()\n        return []\n"
  in
  let lowered = lower_method_of source "m" in
  let plain = Mpy_lower.strip_markers lowered.Mpy_lower.low_prog in
  (* cond, (body cond)*, return: more, (next more)* *)
  Alcotest.(check bool) "zero iterations" true
    (Semantics.derivable Semantics.Returned (tr [ "p.more" ]) plain);
  Alcotest.(check bool) "two iterations" true
    (Semantics.derivable Semantics.Returned
       (tr [ "p.more"; "p.next"; "p.more"; "p.next"; "p.more" ])
       plain)

let test_lower_break_warns () =
  let source =
    "class C:\n    def m(self):\n        while True:\n            break\n        return []\n"
  in
  let lowered = lower_method_of source "m" in
  Alcotest.(check bool) "warning emitted" true (lowered.Mpy_lower.low_warnings <> [])

let test_lower_implicit_else () =
  let source =
    "class C:\n    def m(self):\n        if x:\n            self.p.go()\n        return []\n"
  in
  let lowered = lower_method_of source "m" in
  let plain = Mpy_lower.strip_markers lowered.Mpy_lower.low_prog in
  Alcotest.(check bool) "skip branch exists" true
    (Semantics.derivable Semantics.Returned [] plain);
  Alcotest.(check bool) "go branch exists" true
    (Semantics.derivable Semantics.Returned (tr [ "p.go" ]) plain)

(* --- Pretty-printer round-trips -------------------------------------------------- *)

let roundtrip_class source =
  let ast = Mpy_parser.parse_class source in
  let printed = Mpy_pretty.print_class ast in
  let reparsed =
    try Mpy_parser.parse_class printed
    with
    | Mpy_parser.Parse_error (msg, line, col) ->
      Alcotest.failf "re-parse failed at %d:%d (%s) in:\n%s" line col msg printed
    | Mpy_lexer.Lex_error (msg, line, col) ->
      Alcotest.failf "re-lex failed at %d:%d (%s) in:\n%s" line col msg printed
  in
  if not (Mpy_pretty.equal_class ast reparsed) then
    Alcotest.failf "round-trip changed the AST; printed form:\n%s" printed

let test_pretty_valve_roundtrip () = roundtrip_class valve_source
let test_pretty_bad_sector_roundtrip () = roundtrip_class bad_sector_source

let test_pretty_operators_roundtrip () =
  let exprs =
    [
      "1 + 2 * 3";
      "(1 + 2) * 3";
      "a or b and not c";
      "(a or b) and c";
      "x == y + 1";
      "not x in ys";
      "self.a.f(self.b.g(1), [2, 3])";
      "-x + +y";
      "xs[0]";
      "(a, b)";
    ]
  in
  List.iter
    (fun text ->
      let e = Mpy_parser.parse_expression text in
      let printed = Mpy_pretty.print_expr e in
      let reparsed = Mpy_parser.parse_expression printed in
      if not (Mpy_pretty.equal_expr e reparsed) then
        Alcotest.failf "expression round-trip broke: %s -> %s" text printed)
    exprs

let test_pretty_statements_roundtrip () =
  roundtrip_class
    "class C:\n\
    \    def m(self):\n\
    \        pass\n\
    \        x = 1\n\
    \        while x < 3:\n\
    \            x += 1\n\
    \            continue\n\
    \        for i in range(3):\n\
    \            break\n\
    \        if a:\n\
    \            return\n\
    \        elif b:\n\
    \            return None\n\
    \        else:\n\
    \            return [\"m\"], 2\n"

let test_pretty_program_roundtrip () =
  let source = valve_source ^ bad_sector_source ^ "\nv = Valve()\nv.test()\n" in
  let ast = Mpy_parser.parse_program source in
  let printed = Mpy_pretty.print_program ast in
  let reparsed = Mpy_parser.parse_program printed in
  Alcotest.(check bool) "program round-trip" true (Mpy_pretty.equal_program ast reparsed)

let test_pretty_equal_ignores_lines () =
  let a = Mpy_parser.parse_class valve_source in
  let b = Mpy_parser.parse_class ("\n\n\n" ^ valve_source) in
  Alcotest.(check bool) "positions ignored" true (Mpy_pretty.equal_class a b)

(* --- Robustness: the frontend never crashes, it only raises its declared
   exceptions ------------------------------------------------------------- *)

let prop_parser_total =
  qtest "lexer/parser raise only declared exceptions" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range '\t' '~') (int_range 0 60))
    ~print:(Printf.sprintf "%S")
    (fun source ->
      match Mpy_parser.parse_program source with
      | _ -> true
      | exception Mpy_parser.Parse_error _ -> true
      | exception Mpy_lexer.Lex_error _ -> true)

let prop_parser_total_structured =
  (* Fuzz with token-ish fragments, which reach much deeper than raw chars. *)
  qtest "structured fuzz" ~count:300
    QCheck2.Gen.(
      map (String.concat " ")
        (list_size (int_range 0 25)
           (oneofl
              [
                "class"; "def"; "return"; "if"; "else"; "elif"; "match"; "case"; "while";
                "for"; "in"; "pass"; ":"; "("; ")"; "["; "]"; ","; "."; "="; "=="; "@";
                "self"; "x"; "f"; "\"s\""; "1"; "\n"; "\n    "; "\n        ";
              ])))
    ~print:(Printf.sprintf "%S")
    (fun source ->
      match Mpy_parser.parse_program source with
      | _ -> true
      | exception Mpy_parser.Parse_error _ -> true
      | exception Mpy_lexer.Lex_error _ -> true)

let () =
  Alcotest.run "micropython"
    [
      ( "lexer",
        [
          Alcotest.test_case "simple line" `Quick test_lex_simple_line;
          Alcotest.test_case "indentation" `Quick test_lex_indentation;
          Alcotest.test_case "nested dedents" `Quick test_lex_nested_dedents;
          Alcotest.test_case "blank lines and comments" `Quick test_lex_blank_lines_and_comments;
          Alcotest.test_case "implicit line joining" `Quick test_lex_implicit_line_joining;
          Alcotest.test_case "string escapes" `Quick test_lex_string_escapes;
          Alcotest.test_case "unterminated string" `Quick test_lex_unterminated_string;
          Alcotest.test_case "inconsistent dedent" `Quick test_lex_inconsistent_dedent;
          Alcotest.test_case "eof dedents" `Quick test_lex_eof_dedents;
          Alcotest.test_case "decorator" `Quick test_lex_decorator;
          Alcotest.test_case "positions" `Quick test_lex_positions;
        ] );
      ( "parser",
        [
          Alcotest.test_case "valve class" `Quick test_parse_valve;
          Alcotest.test_case "valve decorators" `Quick test_parse_valve_method_decorators;
          Alcotest.test_case "valve returns" `Quick test_parse_valve_returns;
          Alcotest.test_case "bad sector" `Quick test_parse_bad_sector;
          Alcotest.test_case "match patterns" `Quick test_parse_match_patterns;
          Alcotest.test_case "return tuple" `Quick test_parse_return_tuple;
          Alcotest.test_case "while and for" `Quick test_parse_while_for;
          Alcotest.test_case "errors have positions" `Quick test_parse_errors_have_positions;
          Alcotest.test_case "error positions exact" `Quick test_error_positions_exact;
          Alcotest.test_case "tolerant diagnostics positions" `Quick
            test_tolerant_diagnostics_same_positions;
          Alcotest.test_case "nested def rejected" `Quick test_parse_nested_def_rejected;
          Alcotest.test_case "top-level program" `Quick test_parse_program_toplevel;
          Alcotest.test_case "expression" `Quick test_parse_expression;
          Alcotest.test_case "operator precedence" `Quick test_parse_operators;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "valve open" `Quick test_lower_valve_open;
          Alcotest.test_case "valve test branches" `Quick test_lower_valve_test_branches;
          Alcotest.test_case "exit markers distinct" `Quick test_lower_exit_markers_distinct;
          Alcotest.test_case "exit marker roundtrip" `Quick test_exit_marker_roundtrip;
          Alcotest.test_case "field call order" `Quick test_field_call_events_order;
          Alcotest.test_case "non-field calls ignored" `Quick test_field_call_ignores_non_fields;
          Alcotest.test_case "match is choice" `Quick test_lower_match_is_choice;
          Alcotest.test_case "while is loop" `Quick test_lower_while_is_loop;
          Alcotest.test_case "break warns" `Quick test_lower_break_warns;
          Alcotest.test_case "implicit else" `Quick test_lower_implicit_else;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "valve round-trip" `Quick test_pretty_valve_roundtrip;
          Alcotest.test_case "bad sector round-trip" `Quick test_pretty_bad_sector_roundtrip;
          Alcotest.test_case "operators round-trip" `Quick test_pretty_operators_roundtrip;
          Alcotest.test_case "statements round-trip" `Quick test_pretty_statements_roundtrip;
          Alcotest.test_case "program round-trip" `Quick test_pretty_program_roundtrip;
          Alcotest.test_case "equality ignores lines" `Quick test_pretty_equal_ignores_lines;
        ] );
      ("robustness", [ prop_parser_total; prop_parser_total_structured ]);
    ]
