(* The one JSON module: both layouts read back through the one parser, the
   number rule, and the pretty layout's exact bytes. *)

open Jsonl

(* JSON cannot spell a non-finite number: the printers write null. *)
let rec finite = function
  | Num f when not (Float.is_finite f) -> Null
  | Arr items -> Arr (List.map finite items)
  | Obj fields -> Obj (List.map (fun (k, v) -> (k, finite v)) fields)
  | v -> v

(* Any byte, with the ones an escaper can get wrong drawn often: quote,
   backslash, every control character, DEL, and the UTF-8 bytes of "∥". *)
let gen_string =
  let open QCheck2.Gen in
  let tricky =
    oneofl
      [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\012'; '\000'; '\x1f'; '\x7f'; '\xe2'; '\x88';
        '\xa5' ]
  in
  let control = map Char.chr (int_range 0 0x1f) in
  string_size ~gen:(frequency [ (3, char); (2, tricky); (1, control) ]) (int_range 0 8)

let gen_float =
  let open QCheck2.Gen in
  frequency
    [ (3, float);
      (2, map float_of_int (int_range (-1_000_000) 1_000_000));
      ( 2,
        oneofl
          [ nan; infinity; neg_infinity; 0.1; 0.2 +. 0.1; -0.; 1e15; -1e15; 1e300; 5e-324;
            Float.max_float; 123456.789; 1. /. 3. ] );
    ]

let gen_value =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ pure Null;
               map (fun b -> Bool b) bool;
               map (fun f -> Num f) gen_float;
               map (fun s -> Str s) gen_string;
             ]
         in
         if n <= 0 then leaf
         else
           let sub = self (n / 3) in
           frequency
             [ (2, leaf);
               (1, map (fun items -> Arr items) (list_size (int_range 0 4) sub));
               ( 1,
                 map (fun fields -> Obj fields) (list_size (int_range 0 4) (pair gen_string sub)) );
             ])

let prop_round_trip =
  QCheck2.Test.make ~count:1000 ~name:"parse (print v) = v, both layouts" ~print:to_string
    gen_value (fun v ->
      let compact = to_string v in
      let expected = Ok (finite v) in
      (not (String.contains compact '\n'))
      && parse compact = expected
      && parse (to_string_pretty v) = expected)

let test_number_rule () =
  let show f = to_string (Num f) in
  List.iter
    (fun (f, text) -> Alcotest.(check string) text text (show f))
    [ (3., "3"); (-0., "-0"); (1e14, "100000000000000"); (0.1, "0.1");
      (0.2 +. 0.1, "0.30000000000000004"); (1.5, "1.5"); (1e15, "1e+15"); (nan, "null");
      (infinity, "null"); (neg_infinity, "null") ];
  Alcotest.(check string) "int" "42" (to_string (int 42))

let test_pretty_layout () =
  let v =
    Obj
      [ ("empty_list", Arr []);
        ("empty_obj", Obj []);
        ("items", Arr [ int 1; Str "x\"y"; Bool false ]);
        ("nested", Obj [ ("k", Null) ]);
      ]
  in
  Alcotest.(check string)
    "two-space indent, key: value, trailing newline"
    "{\n\
    \  \"empty_list\": [],\n\
    \  \"empty_obj\": {},\n\
    \  \"items\": [\n\
    \    1,\n\
    \    \"x\\\"y\",\n\
    \    false\n\
    \  ],\n\
    \  \"nested\": {\n\
    \    \"k\": null\n\
    \  }\n\
     }\n"
    (to_string_pretty v);
  Alcotest.(check string)
    "compact: one line, no spaces"
    "{\"empty_list\":[],\"empty_obj\":{},\"items\":[1,\"x\\\"y\",false],\"nested\":{\"k\":null}}"
    (to_string v);
  Alcotest.(check string) "a scalar file ends with a newline" "\"a\\bb\\fc\"\n"
    (to_string_pretty (Str "a\bb\012c"))

let () =
  Alcotest.run "json"
    [ ("round trip", [ QCheck_alcotest.to_alcotest prop_round_trip ]);
      ( "layout",
        [ Alcotest.test_case "number rule" `Quick test_number_rule;
          Alcotest.test_case "pretty layout" `Quick test_pretty_layout;
        ] );
    ]
