type format =
  | Text
  | Json
  | Sarif

let format_of_string = function
  | "text" -> Ok Text
  | "json" -> Ok Json
  | "sarif" -> Ok Sarif
  | s -> Error (Printf.sprintf "unknown lint format '%s' (expected text, json or sarif)" s)

let severity_word = function
  | Report.Error -> "error"
  | Report.Warning -> "warning"
  | Report.Info -> "info"

(* --- Text ------------------------------------------------------------------ *)

let text_line (d : Lint.diagnostic) =
  let pos = if d.Lint.line > 0 then Printf.sprintf ":%d" d.Lint.line else "" in
  let cls = if d.Lint.class_name = "" then "" else Printf.sprintf " [%s]" d.Lint.class_name in
  Printf.sprintf "%s%s: %s %s%s: %s" d.Lint.file pos (severity_word d.Lint.severity)
    d.Lint.rule cls d.Lint.message

let plural n word = if n = 1 then word else word ^ "s"

let summary_line results =
  let findings =
    List.fold_left (fun acc (r : Lint.file_result) -> acc + List.length r.Lint.findings) 0
      results
  in
  let suppressed =
    List.fold_left
      (fun acc (r : Lint.file_result) -> acc + List.length r.Lint.suppressed)
      0 results
  in
  let nfiles = List.length results in
  let files = Printf.sprintf "%d %s" nfiles (plural nfiles "file") in
  let tail = if suppressed = 0 then "" else Printf.sprintf ", %d suppressed" suppressed in
  if findings = 0 then Printf.sprintf "no findings in %s%s" files tail
  else begin
    let count severity =
      let n = Lint.count_severity results severity in
      if n = 0 then None else Some (Printf.sprintf "%d %s" n (plural n (severity_word severity)))
    in
    let breakdown =
      List.filter_map count [ Report.Error; Report.Warning; Report.Info ]
      |> String.concat ", "
    in
    Printf.sprintf "%d %s (%s) in %s%s" findings (plural findings "finding") breakdown
      files tail
  end

let text results =
  let lines =
    List.concat_map
      (fun (r : Lint.file_result) -> List.map text_line r.Lint.findings)
      results
  in
  String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ summary_line results ^ "\n"

(* --- shelley.lint/1 -------------------------------------------------------- *)

open Jsonl

let diagnostic_json (d : Lint.diagnostic) =
  Obj
    ([ ("rule", Str d.Lint.rule);
       ("name", Str d.Lint.rule_name);
       ("severity", Str (severity_word d.Lint.severity));
     ]
    @ (if d.Lint.line > 0 then [ ("line", int d.Lint.line) ] else [])
    @ (if d.Lint.class_name = "" then [] else [ ("class", Str d.Lint.class_name) ])
    @ [ ("message", Str d.Lint.message) ])

let json results =
  let file_json (r : Lint.file_result) =
    Obj
      [ ("file", Str r.Lint.lint_file);
        ("findings", Arr (List.map diagnostic_json r.Lint.findings));
        ("suppressed", Arr (List.map diagnostic_json r.Lint.suppressed));
      ]
  in
  let suppressed =
    List.fold_left
      (fun acc (r : Lint.file_result) -> acc + List.length r.Lint.suppressed)
      0 results
  in
  to_string_pretty
    (Obj
       [ ("format", Str "shelley.lint/1");
         ("files", Arr (List.map file_json results));
         ( "summary",
           Obj
             [ ("files", int (List.length results));
               ( "findings",
                 int
                   (List.fold_left
                      (fun acc (r : Lint.file_result) ->
                        acc + List.length r.Lint.findings)
                      0 results) );
               ("errors", int (Lint.count_severity results Report.Error));
               ("warnings", int (Lint.count_severity results Report.Warning));
               ("infos", int (Lint.count_severity results Report.Info));
               ("suppressed", int suppressed);
             ] );
       ])

(* --- SARIF 2.1.0 ----------------------------------------------------------- *)

let sarif_level = function
  | Report.Error -> "error"
  | Report.Warning -> "warning"
  | Report.Info -> "note"

let sarif results =
  let rule_index =
    List.mapi (fun i (r : Rules.t) -> (r.Rules.code, i)) Rules.all
  in
  let rules_json =
    List.map
      (fun (r : Rules.t) ->
        Obj
          [ ("id", Str r.Rules.code);
            ("name", Str r.Rules.name);
            ("shortDescription", Obj [ ("text", Str r.Rules.summary) ]);
            ("defaultConfiguration", Obj [ ("level", Str (sarif_level r.Rules.severity)) ]);
          ])
      Rules.all
  in
  let result_json ~suppressed (d : Lint.diagnostic) =
    let location =
      Obj
        [ ( "physicalLocation",
            Obj
              ([ ("artifactLocation", Obj [ ("uri", Str d.Lint.file) ]) ]
              @
              if d.Lint.line > 0 then
                [ ("region", Obj [ ("startLine", int d.Lint.line) ]) ]
              else []) )
        ]
    in
    let message =
      if d.Lint.class_name = "" then d.Lint.message
      else Printf.sprintf "[%s] %s" d.Lint.class_name d.Lint.message
    in
    Obj
      ([ ("ruleId", Str d.Lint.rule) ]
      @ (match List.assoc_opt d.Lint.rule rule_index with
        | Some i -> [ ("ruleIndex", int i) ]
        | None -> [])
      @ [ ("level", Str (sarif_level d.Lint.severity));
          ("message", Obj [ ("text", Str message) ]);
          ("locations", Arr [ location ]);
        ]
      @
      if suppressed then [ ("suppressions", Arr [ Obj [ ("kind", Str "inSource") ] ]) ]
      else [])
  in
  let all_results =
    List.concat_map
      (fun (r : Lint.file_result) ->
        List.map (result_json ~suppressed:false) r.Lint.findings
        @ List.map (result_json ~suppressed:true) r.Lint.suppressed)
      results
  in
  to_string_pretty
    (Obj
       [ ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
         ("version", Str "2.1.0");
         ( "runs",
           Arr
             [ Obj
                 [ ( "tool",
                     Obj
                       [ ( "driver",
                           Obj
                             [ ("name", Str "shelley");
                               ( "informationUri",
                                 Str "https://github.com/shelley-checker/shelley" );
                               ("rules", Arr rules_json);
                             ] )
                       ] );
                   ("results", Arr all_results);
                 ]
             ] );
       ])

let render = function
  | Text -> text
  | Json -> json
  | Sarif -> sarif
