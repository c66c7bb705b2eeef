(** How the tool takes its inputs: a file's bytes, and a model by class
    name. {!Pipeline} (source files) and {!Model_io} ([.shelley] model
    files) both read through here. *)

val read_file : string -> string
(** The whole file, as bytes.
    @raise Sys_error when the file cannot be read. *)

val find_model : Model.t list -> string -> Model.t option
(** The first model of the list with the given class name. *)
