(* Clocks, process accounting from /proc, order statistics, and the
   benchmark's own span recorder. *)

let now () = Sysconf.monotonic_time ()
let ms_since t0 = (now () -. t0) *. 1000.

(* --- Order statistics --------------------------------------------------------- *)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile q values =
  match values with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list values in
    Array.sort Float.compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

(* --- /proc --------------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_proc path =
  (* /proc files report length 0; read them in chunks. *)
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec go () =
          match input ic chunk 0 4096 with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          | exception Sys_error _ -> ()
        in
        go ();
        Some (Buffer.contents buf))

(* USER_HZ: /proc reports CPU times in ticks of 1/100 s on Linux. *)
let ticks_per_s = 100.

(* CPU milliseconds of [pid] from /proc/<pid>/stat: utime + stime, plus
   cutime + cstime (children it has reaped) when [children]. Fields are
   counted after the parenthesized command name, which may hold spaces. *)
let cpu_ms ?(children = true) pid =
  match read_proc (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.0
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> 0.0
    | Some i ->
      let fields =
        String.sub s (i + 2) (String.length s - i - 2)
        |> String.split_on_char ' ' |> Array.of_list
      in
      (* fields.(0) is field 3 (state); utime is field 14. *)
      let f k = try float_of_string fields.(k - 3) with _ -> 0.0 in
      let own = f 14 +. f 15 in
      let reaped = if children then f 16 +. f 17 else 0.0 in
      (own +. reaped) *. 1000. /. ticks_per_s)

(* Peak resident set (VmHWM) of [pid] in MiB; 0 when it is gone. *)
let peak_rss_mb pid =
  match read_proc (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.0
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ -> float_of_string_opt kb
             | [] -> None)
           | _ -> None)
    |> Option.fold ~none:0.0 ~some:(fun kb -> kb /. 1024.)

let self_pid = Unix.getpid ()

(* --- Files --------------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path

(* --- Spans ---------------------------------------------------------------------

   The benchmark's own trace: one span per call into a layer's public
   function, kept in memory and written out when the run ends. A layer's
   self time is its spans' durations minus the parts their child spans
   cover; whatever no layer span covers is the harness's own time. *)

type span = {
  name : string;
  unit_id : int;  (** the input file or request the span belongs to *)
  parent : int;  (** index of the enclosing span, -1 for a root *)
  start : float;
  mutable stop : float;
  mutable child_s : float;  (** time covered by direct children *)
}

type tracer = {
  on : bool;  (** [false]: spans run their body and record nothing *)
  mutable spans : span array;
  mutable len : int;
  mutable open_ : int;  (** innermost open span, -1 when none *)
  mutable unit_id : int;
}

let tracer ~on = { on; spans = [||]; len = 0; open_ = -1; unit_id = -1 }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1

let span t name f = if not t.on then f () else
  let idx = t.len in
  let parent = t.open_ in
  push t { name; unit_id = t.unit_id; parent; start = now (); stop = 0.0; child_s = 0.0 };
  t.open_ <- idx;
  let finish () =
    let s = t.spans.(idx) in
    s.stop <- now ();
    t.open_ <- parent;
    if parent >= 0 then
      t.spans.(parent).child_s <- t.spans.(parent).child_s +. (s.stop -. s.start)
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Self milliseconds per span name, in first-seen order. *)
let self_ms t =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let self = (s.stop -. s.start -. s.child_s) *. 1000. in
    match Hashtbl.find_opt tbl s.name with
    | Some v -> Hashtbl.replace tbl s.name (v +. self)
    | None ->
      order := s.name :: !order;
      Hashtbl.add tbl s.name self
  done;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let write_spans t path =
  let oc = open_out_bin path in
  output_string oc "{\"spans\": [\n";
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "%s{\"name\": %S, \"unit\": %d, \"parent\": %d, \"start_us\": %.1f, \"end_us\": %.1f}\n"
      (if i = 0 then "  " else ", ")
      s.name s.unit_id s.parent (s.start *. 1e6) (s.stop *. 1e6)
  done;
  output_string oc "]}\n";
  close_out oc
