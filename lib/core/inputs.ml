let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find_model models name =
  List.find_opt (fun (m : Model.t) -> String.equal m.Model.name name) models
