type verdict =
  | Verified of { specs : int }
  | Counterexample of { failed : string list }
  | Rejected_input of { detail : string }
  | Tool_missing of { searched : string list }
  | Tool_timeout of { seconds : float }
  | Tool_failed of {
      reason : string;
      detail : string;
    }

type run = {
  verdict : verdict;
  stdout : string;
  stderr : string;
}

let default_binaries = [ "NuSMV"; "nusmv" ]

let runnable path =
  Sys.file_exists path
  && (not (Sys.is_directory path))
  && match Unix.access path [ Unix.X_OK ] with
     | () -> true
     | exception Unix.Unix_error _ -> false

let find_binary ?binary () =
  let candidates =
    match binary with
    | Some b -> [ b ]
    | None -> default_binaries
  in
  let resolve name =
    if String.contains name '/' then if runnable name then Some name else None
    else
      Sys.getenv_opt "PATH"
      |> Option.value ~default:""
      |> String.split_on_char ':'
      |> List.find_map (fun dir ->
             let dir = if dir = "" then "." else dir in
             let path = Filename.concat dir name in
             if runnable path then Some path else None)
  in
  match List.find_map resolve candidates with
  | Some path -> Ok path
  | None -> Error candidates

let lines s = String.split_on_char '\n' s

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  m = 0
  || (m <= n
     && List.exists (fun i -> String.sub s i m = sub) (List.init (n - m + 1) Fun.id))

(* Last non-empty stderr lines, for a compact diagnostic. *)
let tail_detail s =
  let nonempty = List.filter (fun l -> String.trim l <> "") (lines s) in
  let rec last_n n = function
    | [] -> []
    | _ :: rest as l -> if List.length l <= n then l else last_n n rest
  in
  String.concat "\n" (last_n 3 nonempty)

let classify_output ~status ~stdout ~stderr =
  let spec_lines verdict_word =
    List.filter
      (fun l ->
        contains_sub ~sub:"-- specification" l && contains_sub ~sub:("is " ^ verdict_word) l)
      (lines stdout)
  in
  (* Needles are anchored to NuSMV's own diagnostic phrasing ("undefined
     identifier", "is undefined") rather than the bare word "undefined",
     which also shows up in unrelated failures (a dynamic linker's
     "undefined symbol", a trace that mentions the word) that must stay
     classified as Tool_failed. *)
  let parse_trouble =
    List.exists
      (fun needle -> contains_sub ~sub:needle stderr || contains_sub ~sub:needle stdout)
      [
        "syntax error";
        "Parser error";
        "parse error";
        "TYPE ERROR";
        "undefined identifier";
        "is undefined";
      ]
  in
  match status with
  | Unix.WEXITED 0 -> (
    match spec_lines "false" with
    | [] ->
      if parse_trouble then Rejected_input { detail = tail_detail (stderr ^ "\n" ^ stdout) }
      else Verified { specs = List.length (spec_lines "true") }
    | failed -> Counterexample { failed = List.map String.trim failed })
  | Unix.WEXITED 127 -> Tool_missing { searched = [ "(exec failed: exit 127)" ] }
  | Unix.WEXITED code ->
    if parse_trouble then Rejected_input { detail = tail_detail (stderr ^ "\n" ^ stdout) }
    else
      Tool_failed
        { reason = Printf.sprintf "exited with code %d" code; detail = tail_detail stderr }
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Tool_failed
      { reason = "killed by " ^ Supervisor.signal_name n; detail = tail_detail stderr }

(* Read both output pipes to EOF under an absolute deadline; kill on
   expiry. Reading concurrently (select) avoids the classic deadlock where
   the tool blocks writing a long counterexample while we block in
   waitpid. On timeout the *process group* is killed (the child was made a
   group leader at spawn) and draining stops at once — a grandchild the
   tool forked may still hold the pipe's write end, and waiting for its
   EOF would turn one hung helper into a hung driver. *)
let drain_process ~timeout pid out_fd err_fd =
  let deadline = Clock.now () +. timeout in
  let out_buf = Buffer.create 1024 and err_buf = Buffer.create 1024 in
  let chunk = Bytes.create 65536 in
  let open_fds = ref [ (out_fd, out_buf); (err_fd, err_buf) ] in
  let timed_out = ref false in
  while !open_fds <> [] && not !timed_out do
    let left = deadline -. Clock.now () in
    if left <= 0.0 then begin
      timed_out := true;
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
    end
    else begin
      let readable, _, _ =
        try Unix.select (List.map fst !open_fds) [] [] left
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          match List.assoc_opt fd !open_fds with
          | None -> ()
          | Some buf -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
              Unix.close fd;
              open_fds := List.remove_assoc fd !open_fds
            | k -> Buffer.add_subbytes buf chunk 0 k
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error _ ->
              Unix.close fd;
              open_fds := List.remove_assoc fd !open_fds))
        readable
    end
  done;
  List.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) !open_fds;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  (wait (), Buffer.contents out_buf, Buffer.contents err_buf, !timed_out)

let run_file ?binary ?(timeout = 30.0) path =
  match find_binary ?binary () with
  | Error searched -> { verdict = Tool_missing { searched }; stdout = ""; stderr = "" }
  | Ok exe -> (
    Obs.with_span ~args:[ ("binary", exe) ] "nusmv.spawn" @@ fun () ->
    Obs.count "nusmv.runs" 1;
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let out_rd, out_wr = Unix.pipe () in
    let err_rd, err_wr = Unix.pipe () in
    (* fork + exec by hand (not create_process) so the child can become a
       process-group leader first: on timeout the whole group is killed,
       including any helper processes the tool spawned. *)
    let spawn () =
      match Unix.fork () with
      | 0 ->
        (* The whole child branch must end in _exit: an exception escaping
           here (a failed dup2, say) would fall into the parent's handler
           below and run the rest of the CLI a second time. *)
        (try
           (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
           Unix.dup2 devnull Unix.stdin;
           Unix.dup2 out_wr Unix.stdout;
           Unix.dup2 err_wr Unix.stderr;
           ignore (Unix.execvp exe [| exe; path |])
         with _ -> ());
        Unix._exit 127
      | pid -> pid
    in
    match spawn () with
    | exception exn ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ devnull; out_rd; out_wr; err_rd; err_wr ];
      {
        verdict = Tool_failed { reason = "failed to spawn"; detail = Printexc.to_string exn };
        stdout = "";
        stderr = "";
      }
    | pid ->
      Unix.close devnull;
      Unix.close out_wr;
      Unix.close err_wr;
      let status, stdout, stderr, timed_out = drain_process ~timeout pid out_rd err_rd in
      if timed_out then Obs.count "nusmv.timeouts" 1;
      let verdict =
        if timed_out then Tool_timeout { seconds = timeout }
        else classify_output ~status ~stdout ~stderr
      in
      { verdict; stdout; stderr })

let run_text ?binary ?timeout text =
  let path = Filename.temp_file "shelley" ".smv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc text);
      run_file ?binary ?timeout path)

let pp_verdict fmt = function
  | Verified { specs } ->
    Format.fprintf fmt "verified (%d spec%s true)" specs (if specs = 1 then "" else "s")
  | Counterexample { failed } ->
    Format.fprintf fmt "counterexample (%d spec%s false)" (List.length failed)
      (if List.length failed = 1 then "" else "s")
  | Rejected_input { detail } -> Format.fprintf fmt "NuSMV rejected the model: %s" detail
  | Tool_missing { searched } ->
    Format.fprintf fmt "NuSMV binary not found (searched: %s)"
      (String.concat ", " searched)
  | Tool_timeout { seconds } -> Format.fprintf fmt "NuSMV timed out after %gs" seconds
  | Tool_failed { reason; detail } ->
    Format.fprintf fmt "NuSMV failed: %s%s" reason
      (if detail = "" then "" else " — " ^ detail)

let exit_code = function
  | Verified _ -> 0
  | Counterexample _ -> 1
  | Rejected_input _ -> 2
  | Tool_missing _ | Tool_timeout _ | Tool_failed _ -> 3
