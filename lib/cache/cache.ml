(* Content-addressed blob store behind `shelley check --cache`.

   On-disk layout: DIR/<k0k1>/<key>.entry, with a 2-hex-char fan-out so a
   million entries do not share one directory. Entry bytes:

     line 1   "shelley-cache <format_version>\n"     (magic + layout version)
     line 2   <32 hex chars: MD5 of the payload>\n   (checksum)
     rest     the marshalled payload

   The checksum is verified before the payload reaches Marshal, so the
   unmarshaller only ever sees bit-exact bytes that a previous store wrote —
   truncation and bit rot classify as corruption, never as a crash or a
   wrong value. *)

type t = {
  root : string;
  (* [Some pending]: deferred-write mode — stores buffer here (newest first)
     until [flush]. [None]: classic write-through. *)
  mutable deferred : (string * string) list option;
}

let tool_version = "1.0.0"
let format_version = 1
let magic = Printf.sprintf "shelley-cache %d" format_version
let magic_prefix = "shelley-cache "

let dir t = t.root

let is_dir path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_DIR; _ } -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let mkdir_if_missing path =
  match Unix.mkdir path 0o755 with
  | () -> true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> is_dir path
  | exception Unix.Unix_error _ -> false

let open_dir root =
  let ok =
    is_dir root
    ||
    (* Create the directory, accepting one missing parent (mkdir -p depth 2:
       enough for the conventional <repo>/.shelley-cache and tmp paths the
       tests use, without reimplementing a full recursive mkdir). *)
    mkdir_if_missing root
    || (mkdir_if_missing (Filename.dirname root) && mkdir_if_missing root)
  in
  if ok then Ok { root; deferred = None }
  else Error (Printf.sprintf "cannot open cache directory %s" root)

(* Length-prefixed concatenation: part boundaries survive, so ["ab"; "c"]
   and ["a"; "bc"] compose different keys. *)
let key parts =
  let canonical =
    String.concat ""
      (List.map (fun p -> Printf.sprintf "%d:%s" (String.length p) p) parts)
  in
  Digest.to_hex (Digest.string canonical)

let entry_path t key =
  let fanout =
    if String.length key >= 2 then String.sub key 0 2 else "xx"
  in
  Filename.concat (Filename.concat t.root fanout) (key ^ ".entry")

(* --- classification (shared by find / stats / gc) -------------------------- *)

type classified =
  | Live of string  (* payload bytes, checksum-verified *)
  | Stale  (* another format version wrote it *)
  | Corrupt  (* truncated, garbage, or checksum mismatch *)

let read_entry path =
  match open_in_bin path with
  | exception Sys_error _ -> Corrupt
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Corrupt
        | header when String.equal header magic -> (
          match input_line ic with
          | exception End_of_file -> Corrupt
          | checksum -> (
            let pos = pos_in ic in
            let len = in_channel_length ic - pos in
            if len < 0 then Corrupt
            else
              match really_input_string ic len with
              | exception End_of_file -> Corrupt
              | payload ->
                if String.equal (Digest.to_hex (Digest.string payload)) checksum
                then Live payload
                else Corrupt))
        | header
          when String.length header >= String.length magic_prefix
               && String.equal
                    (String.sub header 0 (String.length magic_prefix))
                    magic_prefix -> Stale
        | _ -> Corrupt)

(* Classification of entries only ever degrades availability, so every
   filesystem surprise (entry vanished between readdir and open, permissions)
   collapses to Corrupt and, on the find path, to a miss. *)

let find t key =
  Obs.with_span "cache.lookup" @@ fun () ->
  let pending_hit =
    match t.deferred with
    | None -> None
    | Some pending -> List.assoc_opt key pending
  in
  match pending_hit with
  | Some payload -> (
    match Marshal.from_string payload 0 with
    | value ->
      Obs.count_stable "cache.hits" 1;
      Obs.count_stable "cache.bytes_read" (String.length payload);
      Some value
    | exception _ ->
      Obs.count_stable "cache.corrupt_entries" 1;
      Obs.count_stable "cache.misses" 1;
      None)
  | None ->
  let path = entry_path t key in
  if not (Sys.file_exists path) then begin
    Obs.count_stable "cache.misses" 1;
    None
  end
  else
    match read_entry path with
    | Live payload -> (
      match Marshal.from_string payload 0 with
      | value ->
        Obs.count_stable "cache.hits" 1;
        Obs.count_stable "cache.bytes_read" (String.length payload);
        Some value
      | exception _ ->
        (* The checksum passed but the blob does not decode (written by an
           incompatible runtime, or the marshal format changed): a corrupt
           entry, counted and treated as a miss. *)
        Obs.count_stable "cache.corrupt_entries" 1;
        Obs.count_stable "cache.misses" 1;
        None)
    | Stale ->
      (* Evict on contact: a stale entry can never become live again (its
         format version is fixed in its header), so unlink it now rather
         than waiting for a gc. *)
      (try Sys.remove path with Sys_error _ -> ());
      Obs.count_stable "cache.stale_evictions" 1;
      Obs.count_stable "cache.misses" 1;
      None
    | Corrupt ->
      Obs.count_stable "cache.corrupt_entries" 1;
      Obs.count_stable "cache.misses" 1;
      None

let write_entry t key payload =
  let path = entry_path t key in
  let attempt () =
    if not (mkdir_if_missing (Filename.dirname path)) then failwith "mkdir";
    let tmp =
      Printf.sprintf "%s.tmp-%d-%s" (Filename.chop_suffix path ".entry")
        (Unix.getpid ()) key
    in
    let oc = open_out_bin tmp in
    (match
       output_string oc magic;
       output_char oc '\n';
       output_string oc (Digest.to_hex (Digest.string payload));
       output_char oc '\n';
       output_string oc payload
     with
    | () -> close_out oc
    | exception exn ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise exn);
    (match Sys.rename tmp path with
    | () -> ()
    | exception exn ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise exn);
    Obs.count "cache.bytes_written" (String.length payload)
  in
  match attempt () with
  | () -> ()
  | exception _ -> Obs.count "cache.store_failures" 1

let store t key value =
  Obs.with_span "cache.store" @@ fun () ->
  let payload = Marshal.to_string value [] in
  match t.deferred with
  | Some pending ->
    t.deferred <- Some ((key, payload) :: pending);
    Obs.count "cache.deferred_stores" 1
  | None -> write_entry t key payload

let defer_writes t =
  match t.deferred with
  | Some _ -> ()
  | None -> t.deferred <- Some []

let flush t =
  match t.deferred with
  | None -> 0
  | Some pending ->
    (* Newest-first: the first occurrence of a key is the latest store. *)
    let seen = Hashtbl.create 16 in
    let written = ref 0 in
    List.iter
      (fun (key, payload) ->
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          write_entry t key payload;
          incr written
        end)
      pending;
    t.deferred <- Some [];
    !written

(* --- maintenance ------------------------------------------------------------ *)

type stats = {
  live_entries : int;
  live_bytes : int;
  stale_entries : int;
  corrupt_entries : int;
  tmp_files : int;
}

type gc_result = {
  gc_removed_stale : int;
  gc_removed_corrupt : int;
  gc_removed_tmp : int;
  gc_kept : int;
}

let file_size path = match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* Walk every regular file under the fan-out directories, classifying it as
   an entry (live/stale/corrupt) or a leftover temp file. *)
let scan t f =
  match Sys.readdir t.root with
  | exception Sys_error _ -> ()
  | subdirs ->
    Array.sort String.compare subdirs;
    Array.iter
      (fun sub ->
        let subpath = Filename.concat t.root sub in
        if is_dir subpath then
          match Sys.readdir subpath with
          | exception Sys_error _ -> ()
          | files ->
            Array.sort String.compare files;
            Array.iter
              (fun file ->
                let path = Filename.concat subpath file in
                if Filename.check_suffix file ".entry" then
                  f path (`Entry (read_entry path))
                else f path `Tmp)
              files)
      subdirs

let stats t =
  let s =
    ref
      {
        live_entries = 0;
        live_bytes = 0;
        stale_entries = 0;
        corrupt_entries = 0;
        tmp_files = 0;
      }
  in
  scan t (fun path kind ->
      match kind with
      | `Entry (Live _) ->
        s :=
          {
            !s with
            live_entries = !s.live_entries + 1;
            live_bytes = !s.live_bytes + file_size path;
          }
      | `Entry Stale -> s := { !s with stale_entries = !s.stale_entries + 1 }
      | `Entry Corrupt -> s := { !s with corrupt_entries = !s.corrupt_entries + 1 }
      | `Tmp -> s := { !s with tmp_files = !s.tmp_files + 1 });
  !s

let stats_json s =
  Jsonl.(
    to_string_pretty
      (Obj
         [ ("schema", Str "shelley.cache-stats/1");
           ("format_version", int format_version);
           ("live_entries", int s.live_entries);
           ("live_bytes", int s.live_bytes);
           ("stale_entries", int s.stale_entries);
           ("corrupt_entries", int s.corrupt_entries);
           ("tmp_files", int s.tmp_files);
         ]))

let gc t =
  let r =
    ref { gc_removed_stale = 0; gc_removed_corrupt = 0; gc_removed_tmp = 0; gc_kept = 0 }
  in
  scan t (fun path kind ->
      let remove () = try Sys.remove path; true with Sys_error _ -> false in
      match kind with
      | `Entry (Live _) -> r := { !r with gc_kept = !r.gc_kept + 1 }
      | `Entry Stale ->
        if remove () then r := { !r with gc_removed_stale = !r.gc_removed_stale + 1 }
      | `Entry Corrupt ->
        if remove () then r := { !r with gc_removed_corrupt = !r.gc_removed_corrupt + 1 }
      | `Tmp ->
        if remove () then r := { !r with gc_removed_tmp = !r.gc_removed_tmp + 1 });
  !r

let clear t =
  let removed = ref 0 in
  scan t (fun path _ -> try Sys.remove path; incr removed with Sys_error _ -> ());
  !removed
