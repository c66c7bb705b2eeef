(* Request-lifecycle telemetry: the daemon-side recorder behind the
   [metrics]/[health] RPCs and the access log.

   The clock is the subtle part. Real mode reads {!Clock.now}, the one
   monotonic clock every daemon timer and {!Obs} span reads too. Fake mode
   (the [SHELLEY_OBS_FAKE_CLOCK] seam, read by {!Clock.fake_requested}) is
   this recorder's own tick counter, advanced one tick per *lifecycle* read —
   start, dispatch, finish — and by nothing else: wall time, snapshot
   rendering and health probes do not tick it. A serial request sequence
   therefore times out identically on every run and every machine
   (queue_ms = 1, exec_ms = 1 for a dispatched request), which is what
   lets the cram suite pin whole [metrics] snapshots and access-log
   files byte-for-byte. *)

type meth = [ `Check | `Lint ]
type outcome = [ `Ok | `Error | `Shed | `Expired ]

type entry = {
  e_seq : int;
  e_id : string;
  e_client : int;
  e_meth : meth;
  e_outcome : outcome;
  e_start_ms : int;
  e_queue_ms : int;
  e_exec_ms : int;
  e_retry_after_ms : int option;
}

type pending = {
  p_id : string;
  p_meth : meth;
  p_start_ms : int;
  mutable p_client : int;
  mutable p_dispatch_ms : int;  (* -1 until dispatched *)
}

type t = {
  on : bool;
  fake : bool;
  epoch : float;  (* monotonic origin, real mode *)
  mutable ticks : int;  (* fake-clock ms *)
  mutable seq : int;  (* finished entries, ever *)
  check_queue : Histogram.t;
  check_exec : Histogram.t;
  lint_queue : Histogram.t;
  lint_exec : Histogram.t;
  ok_total : Histogram.t;
  error_total : Histogram.t;
  shed_total : Histogram.t;
  expired_total : Histogram.t;
  ring : entry option array;
  mutable ring_next : int;  (* next write position *)
  (* Health event marks: clock instant of the most recent occurrence,
     -1 = never. *)
  mutable last_shed_ms : int;
  mutable last_expired_ms : int;
  mutable last_restart_ms : int;
}

(* Finished entries kept for the [recent] ring. *)
let ring_capacity = 32

let create ?(enabled = true) ?fake_clock () =
  let fake = match fake_clock with Some b -> b | None -> Clock.fake_requested () in
  {
    on = enabled;
    fake;
    epoch = Clock.now ();
    ticks = 0;
    seq = 0;
    check_queue = Histogram.create ();
    check_exec = Histogram.create ();
    lint_queue = Histogram.create ();
    lint_exec = Histogram.create ();
    ok_total = Histogram.create ();
    error_total = Histogram.create ();
    shed_total = Histogram.create ();
    expired_total = Histogram.create ();
    ring = Array.make ring_capacity None;
    ring_next = 0;
    last_shed_ms = -1;
    last_expired_ms = -1;
    last_restart_ms = -1;
  }

let enabled t = t.on

let clock_label t =
  if not t.on then "off" else if t.fake then "fake" else "real"

let real_ms t = int_of_float ((Clock.now () -. t.epoch) *. 1000.)

let now_ms t =
  if not t.on then 0
  else if t.fake then begin
    t.ticks <- t.ticks + 1;
    t.ticks
  end
  else real_ms t

let peek_ms t = if not t.on then 0 else if t.fake then t.ticks else real_ms t

(* --- lifecycle ---------------------------------------------------------------- *)

let start t ~id ~meth =
  {
    p_id = Jsonl.to_string id;
    p_meth = meth;
    p_start_ms = (if t.on then now_ms t else 0);
    p_client = -1;
    p_dispatch_ms = -1;
  }

let set_client p client = p.p_client <- client

let dispatched t p = if t.on then p.p_dispatch_ms <- now_ms t

let meth_hists t = function
  | `Check -> (t.check_queue, t.check_exec)
  | `Lint -> (t.lint_queue, t.lint_exec)

let outcome_hist t = function
  | `Ok -> t.ok_total
  | `Error -> t.error_total
  | `Shed -> t.shed_total
  | `Expired -> t.expired_total

let finish t p ~outcome ?retry_after_ms () =
  if not t.on then None
  else begin
    let now = now_ms t in
    let queue_end = if p.p_dispatch_ms >= 0 then p.p_dispatch_ms else now in
    let queue_ms = max 0 (queue_end - p.p_start_ms) in
    let exec_ms = if p.p_dispatch_ms >= 0 then max 0 (now - p.p_dispatch_ms) else 0 in
    let qh, eh = meth_hists t p.p_meth in
    Histogram.record qh queue_ms;
    (* exec only exists for dispatched requests: a shed's 0 would distort
       the worker-wall distribution. *)
    if p.p_dispatch_ms >= 0 then Histogram.record eh exec_ms;
    Histogram.record (outcome_hist t outcome) (queue_ms + exec_ms);
    (match outcome with
    | `Shed -> t.last_shed_ms <- now
    | `Expired -> t.last_expired_ms <- now
    | `Ok | `Error -> ());
    t.seq <- t.seq + 1;
    let entry =
      {
        e_seq = t.seq;
        e_id = p.p_id;
        e_client = p.p_client;
        e_meth = p.p_meth;
        e_outcome = outcome;
        e_start_ms = p.p_start_ms;
        e_queue_ms = queue_ms;
        e_exec_ms = exec_ms;
        e_retry_after_ms = retry_after_ms;
      }
    in
    t.ring.(t.ring_next) <- Some entry;
    t.ring_next <- (t.ring_next + 1) mod Array.length t.ring;
    Some entry
  end

let note_restart t = if t.on then t.last_restart_ms <- peek_ms t

(* --- snapshots ----------------------------------------------------------------- *)

let method_hists t =
  [ ("check", t.check_queue, t.check_exec); ("lint", t.lint_queue, t.lint_exec) ]

let outcome_hists t =
  [
    ("ok", t.ok_total);
    ("error", t.error_total);
    ("shed", t.shed_total);
    ("expired", t.expired_total);
  ]

let recent t =
  (* Oldest first: the slot at [ring_next] (if filled) is the oldest. *)
  let n = Array.length t.ring in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    match t.ring.((t.ring_next + i) mod n) with
    | Some e -> acc := e :: !acc
    | None -> ()
  done;
  !acc

let meth_name = function
  | `Check -> "check"
  | `Lint -> "lint"

let outcome_name = function
  | `Ok -> "ok"
  | `Error -> "error"
  | `Shed -> "shed"
  | `Expired -> "expired"

let entry_fields e =
  let num_i n = Jsonl.Num (float_of_int n) in
  [
    ("seq", num_i e.e_seq);
    ( "id",
      match Jsonl.parse e.e_id with
      | Ok v -> v
      | Error _ -> Jsonl.Str e.e_id );
    ("client", num_i e.e_client);
    ("method", Jsonl.Str (meth_name e.e_meth));
    ("outcome", Jsonl.Str (outcome_name e.e_outcome));
    ("ts_ms", num_i e.e_start_ms);
    ("queue_ms", num_i e.e_queue_ms);
    ("exec_ms", num_i e.e_exec_ms);
  ]
  @
  match e.e_retry_after_ms with
  | Some ms -> [ ("retry_after_ms", num_i ms) ]
  | None -> []

(* --- health -------------------------------------------------------------------- *)

type health = [ `Ok | `Degraded | `Overloaded ]

let health_label = function
  | `Ok -> "ok"
  | `Degraded -> "degraded"
  | `Overloaded -> "overloaded"

let health t ~queue_depth ~queue_cap ~window_ms =
  let now = peek_ms t in
  let recent mark = t.on && mark >= 0 && now - mark <= window_ms in
  let overloaded =
    (if queue_cap > 0 && queue_depth >= queue_cap then [ "queue_full" ] else [])
    @ if recent t.last_shed_ms then [ "recent_sheds" ] else []
  in
  let degraded =
    (if queue_cap > 1 && queue_depth * 2 >= queue_cap && queue_depth < queue_cap
     then [ "queue_backlog" ]
     else [])
    @ (if recent t.last_expired_ms then [ "recent_expiries" ] else [])
    @ if recent t.last_restart_ms then [ "recent_worker_restarts" ] else []
  in
  match (overloaded, degraded) with
  | [], [] -> (`Ok, [])
  | [], d -> (`Degraded, d)
  | o, d -> (`Overloaded, o @ d)
