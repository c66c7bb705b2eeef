(* Every BENCH_*.json is written here: pretty-printed by [Jsonl], then read
   back and parsed, so a bench whose file no parser accepts fails its own
   run. *)

(* A measurement rounded to [digits] decimals, as the file records it. *)
let fixed digits x =
  let scale = 10. ** float_of_int digits in
  Jsonl.Num (Float.round (x *. scale) /. scale)

let write path v =
  let oc = open_out_bin path in
  output_string oc (Jsonl.to_string_pretty v);
  close_out oc;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Jsonl.parse text with
  | Ok _ -> ()
  | Error msg ->
    Printf.eprintf "FAIL: %s does not parse back: %s\n" path msg;
    exit 1
