(** The one clock of the system.

    Every deadline, heartbeat, backoff gate, reap grace, daemon timer,
    {!Obs} span and serve-telemetry duration reads {!now}. It is monotonic,
    so a wall-clock step (NTP, a manual date change) can neither fire a
    timer early, charge a unit a timeout it did not earn, nor make a
    duration negative.

    {!fake_requested} is the one read of the [SHELLEY_OBS_FAKE_CLOCK]
    determinism seam. The recorders that honor it keep their own tick
    rule: {!Obs} ticks once per clock read, the serve telemetry once per
    request-lifecycle read. Timers never fake: a deadline is real time. *)

val now : unit -> float
(** Seconds on the monotonic clock. The origin is arbitrary (boot time on
    Linux): only differences are meaningful. Falls back to the real-time
    clock where the OS has no monotonic one. *)

val fake_env : string
(** ["SHELLEY_OBS_FAKE_CLOCK"]. *)

val fake_requested : unit -> bool
(** Whether {!fake_env} is set to a non-empty value. *)
