external now : unit -> float = "shelley_monotonic_time"

let fake_env = "SHELLEY_OBS_FAKE_CLOCK"

let fake_requested () =
  match Sys.getenv_opt fake_env with
  | None | Some "" -> false
  | Some _ -> true
