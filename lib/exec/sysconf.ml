(* OS primitives behind the overload story (see sysconf_stubs.c). *)

external set_rlimit_as : int -> bool = "shelley_set_rlimit_as"
(** [set_rlimit_as mb] caps this process's address space at [mb] MiB (hard
    and soft). Returns [false] where the OS refused or lacks RLIMIT_AS —
    callers must treat the cap as best-effort. *)

external drop_free_nursery : unit -> unit = "shelley_drop_free_nursery" [@@noalloc]
(** Release the pages of the minor heap's free part, so that this process
    (a freshly forked worker) fills them with zero pages rather than
    copies of its parent's. Live young objects are untouched. Does nothing
    where [madvise] is missing or fails. *)

let monotonic_time = Clock.now
(** The one clock, {!Clock.now}, under its former name: the benchmark
    harness ([perfbench/probe.ml]) still reads it. Nothing in [lib] or
    [bin] may; they call {!Clock.now}. *)
