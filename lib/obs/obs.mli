(** Observability: spans, counters, and sinks for the verification pipeline.

    [Obs] is the one metrics story for the whole stack: nested wall-clock
    spans keyed by phase/class/file, monotonic counters (fuel consumed,
    automaton states created, product configurations explored, worker-pool
    stats), and three sinks over the same recorded data — a human summary
    table ([shelley check --stats]), machine-readable metrics JSON
    ([--metrics-out]), and Chrome [trace_event] output ([--trace-out],
    loadable in [chrome://tracing] / Perfetto).

    Design constraints, in order:

    - {b Zero overhead when disabled.} The recorder defaults to off; every
      instrumentation call ({!with_span}, {!count}) then costs one branch
      on an option ref and allocates nothing. [bench/bench_parallel.exe]
      guards this with a hard ns/op budget.
    - {b Never on stdout.} Sinks render to [stderr] or to files the caller
      names; the verification report stream stays byte-identical whether
      observability is enabled or not (property-tested in the suite).
    - {b Process-crossing profiles.} A forked worker ([Supervisor]) records
      into its own (inherited) recorder; {!in_unit} delimits one
      verification unit and yields a marshal-safe {!profile} — plain
      strings and ints, no interned symbols — that the parent merges with
      {!add_unit} under the worker's lane, so one trace shows every
      worker's timeline.
    - {b One clock.} Real timestamps are {!Clock.now} readings: monotonic,
      so a wall-clock step can neither stretch nor invert a span.
    - {b Determinism seam.} When {!Clock.fake_requested} (the
      [SHELLEY_OBS_FAKE_CLOCK] environment variable is set) or
      [enable ~fake_clock:true], timestamps come from a deterministic tick
      counter that advances once per read and that {!in_unit} resets per
      unit, so [--stats] output is byte-stable across runs and across [-j]
      levels — the cram tests pin it. *)

type event = {
  ev_name : string;
  ev_args : (string * string) list;  (** only on begin events *)
  ev_ts_us : int;  (** microseconds since the recorder (or unit) epoch *)
  ev_begin : bool;  (** [true] = span open ("B"), [false] = span close ("E") *)
}

type profile = {
  unit_name : string;  (** the file (or other unit) this profile covers *)
  events : event list;  (** chronological, well-nested by construction *)
  counters : (string * int) list;  (** sorted by counter name *)
}
(** Everything one verification unit recorded. Marshal-safe: workers send
    profiles back over the result pipe. *)

val enabled : unit -> bool

val enable : ?fake_clock:bool -> unit -> unit
(** Install a fresh recorder. [fake_clock] defaults to
    {!Clock.fake_requested}. *)

val disable : unit -> unit
(** Drop the recorder; instrumentation reverts to the one-branch no-op. *)

val reset : unit -> unit
(** Clear recorded events/counters/units, keeping the recorder enabled
    (and re-zeroing the fake clock). No-op when disabled. *)

val using_fake_clock : unit -> bool

(** {1 Instrumentation} *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span: a begin event now, an end
    event when [f] returns {e or raises} (the exception is re-raised).
    When disabled this is exactly [f ()]. *)

val count : string -> int -> unit
(** [count key n] adds [n] to counter [key] (created at 0). One branch
    when disabled. *)

val count_stable : string -> int -> unit
(** Like {!count}, but into the recorder's {e stable} counter table: values
    that are deterministic for a given corpus and configuration (cache hits,
    misses, bytes — never timings). Stable counters are exempt from
    {!in_unit}'s buffer swap (they always describe the orchestrator), are
    shown in the [--stats] table alongside the unit counters, and merge into
    the metrics JSON like every other counter. The worker-pool timing
    counters deliberately use plain {!count} so nondeterministic values
    never reach the byte-stable stats table. *)

(** Aliases matching the subsystem vocabulary ([Obs.Span.run],
    [Obs.Counter.add]). *)
module Span : sig
  val run : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
end

module Counter : sig
  val add : string -> int -> unit
end

(** A component's one counter ledger: each event is counted by one
    {!Ledger.add}, which feeds the ledger's always-on totals and, when the
    recorder is enabled, the {!Obs} counter of the same name. A component
    that reports its counts (the worker pool's [stats], the daemon's
    [status]) reads them back with {!Ledger.get}, so the report and the
    metrics cannot disagree. *)
module Ledger : sig
  type t

  val create : ?stable:bool -> unit -> t
  (** [stable] (default [false]) records into {!count_stable} instead of
      {!count}: only for deterministic values. *)

  val add : t -> string -> int -> unit
  val get : t -> string -> int
  (** The total added under the key since {!create}; 0 if none. *)
end

(** {1 Units and worker-profile merging} *)

val in_unit : name:string -> (unit -> 'a) -> 'a * profile option
(** Delimit one verification unit: run [f] against a fresh event buffer and
    counter table (fake clock re-zeroed), wrapped in a root span ["unit"]
    carrying [("file", name)]. Returns [f]'s result plus the captured
    profile; the enclosing recorder state is restored afterwards.
    [(f (), None)] when disabled. *)

val add_unit : lane:int -> profile -> unit
(** Merge a unit profile into the recorder under worker lane [lane]
    (lane [k] renders as Chrome tid [k + 1]; tid 0 is the orchestrator). *)

val units : unit -> (int * profile) list
(** Merged unit profiles, in {!add_unit} order. *)

val profile_total_us : profile -> int
(** Duration of the profile's root span (0 if malformed/empty). *)

(** {1 Inspection} *)

val counters : unit -> (string * int) list
(** Recorder-level (parent/orchestrator) counters, sorted by name —
    e.g. the worker-pool stats [Supervisor] records. Does not include unit
    counters ({!unit_counters}) or stable counters ({!stable_counters}). *)

val stable_counters : unit -> (string * int) list
(** The {!count_stable} table, sorted by name. *)

val unit_counters : unit -> (string * int) list
(** Counters summed across all merged unit profiles, sorted by name.
    Deterministic under the fake clock — this is what the [--stats] table
    shows. *)

val phase_totals : unit -> (string * int * int) list
(** [(phase, count, total_us)] aggregated over merged unit profiles, in
    order of first appearance. *)

(** {1 Sinks} *)

val render_stats : Format.formatter -> unit
(** The human [--stats] table: per-phase counts and timings plus unit
    counters and stable orchestrator counters. Built only from merged unit
    profiles and {!count_stable} values, so it is byte-stable under the
    fake clock regardless of [-j]. *)

val render_metrics_json : unit -> string
(** Machine-readable metrics, schema ["shelley.metrics/1"]: top-level keys
    [schema], [clock], [units] (array of [{name, lane, total_us, spans}]),
    [phases] (array of [{name, count, total_us, mean_us}]), and [counters]
    (object; unit counters summed, then recorder counters merged in). *)

val render_chrome_trace : unit -> string
(** Chrome [trace_event] JSON ([{"traceEvents": [...]}]): orchestrator
    events on tid 0, each unit's events on tid [lane + 1], with
    [thread_name] metadata per lane. Every ["E"] closes a matching ["B"]
    by construction. *)
