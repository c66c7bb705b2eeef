(** Bounded admission queue with deadline expiry and fair scheduling — the
    policy half of the daemon's overload story, factored out of the socket
    loop so it is unit-testable pure bookkeeping.

    All time is an explicit [now] supplied by the caller (the daemon passes
    {!Clock.now}); the module never reads a clock and performs
    no I/O. Operations are O(queue length), and the queue is bounded. *)

type 'a t

val create : max_queue:int -> 'a t
(** An empty queue admitting at most [max_queue] waiting requests. *)

val length : 'a t -> int
val max_queue : 'a t -> int

val min_priority : int
(** -10. Client-supplied priorities are clamped to
    [min_priority..max_priority] at submission: priority is a hint from an
    untrusted client, so an absurd value must not buy unbounded precedence. *)

val max_priority : int
(** 10. See {!min_priority}. *)

val clamp_priority : int -> int
(** Clamp into [min_priority..max_priority] — what {!submit} stores. *)

val aging_interval : float
(** Seconds per effective-priority level gained while queued (1.0). A
    queued request's effective priority is
    [clamped priority + floor(wait / aging_interval)], so after
    [max_priority - min_priority + 1] seconds (~21 s) any waiting request
    outranks a freshly submitted one at [max_priority]: a continuous
    high-priority flood delays low-priority work by a bounded interval,
    never starves it. *)

val retry_after_ms : 'a t -> int
(** The backoff hint a shed client receives: proportional to the backlog,
    clamped to [100..5000] ms. Deterministic — the {e client} adds jitter —
    so tests can assert on it. *)

type 'a verdict =
  | Admitted
  | Shed of int  (** queue full; payload is the [retry_after_ms] hint *)
  | Expired  (** the deadline was already in the past at submission *)

val submit :
  'a t ->
  client:int ->
  priority:int ->
  deadline:float option ->
  now:float ->
  'a ->
  'a verdict
(** Try to enqueue a request from [client]. [priority] is clamped (see
    {!min_priority}); [deadline] is absolute on the caller's clock; [None]
    waits indefinitely. The queue is never grown past [max_queue] — a full
    queue sheds immediately rather than buffering unboundedly. *)

val expired : 'a t -> now:float -> (int * 'a) list
(** Remove and return every queued request whose deadline has passed, in
    arrival order, as [(client, payload)] pairs — the daemon answers each
    with a structured [expired] error and never dispatches it. *)

val next : 'a t -> now:float -> (int * 'a) option
(** Dispatch the next request: among each client's head-of-line request,
    pick the highest effective priority — clamped priority plus the aging
    credit earned since submission (see {!aging_interval}); within a
    level, the client served longest ago (round-robin, never-served
    first); ties break by arrival. One client queueing a hundred requests
    therefore cannot starve a client queueing one, and no priority value
    can starve lower-priority clients indefinitely. *)

val drop_client : 'a t -> int -> int
(** Remove every queued request of a disconnected client (their responses
    have nowhere to go); returns how many were dropped. *)

val oldest_arrival : 'a t -> float option
(** The submission instant (caller's clock) of the longest-waiting queued
    request; [None] when empty. [status] and [health] report
    [now - oldest_arrival] so an operator sees a building backlog before
    it sheds. *)
