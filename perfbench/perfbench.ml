(* One benchmark for the repository: three workloads, each checked against
   answers known in advance, reporting end-to-end metrics (--trace 0) or
   per-layer metrics from a separate traced run (--trace 1). The last line
   of standard output is one JSON object; see README.md.

   Usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
            [--shelley PATH]  (the CLI binary that serve_edits runs as its daemon) *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload check_corpus|lint_heavy|serve_edits --seed N \
     --seconds S --trace 0|1 [--shelley PATH]";
  exit 2

(* -j nproc: the workloads never ask for more processes than the host has
   processors. *)
let nproc () =
  match Probe.read_proc "/proc/cpuinfo" with
  | None -> 1
  | Some s ->
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
    |> List.length |> max 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      opts ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = float_of_int (int "seconds") in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let shelley = Option.value (List.assoc_opt "shelley" opts) ~default:"_build/default/bin/shelley.exe" in
  let jobs = nproc () in
  Probe.mkdir_p Run.work_dir;
  let result =
    match workload, traced with
    | "check_corpus", false -> Batch.measure Batch.Check ~seed ~seconds ~jobs
    | "check_corpus", true -> Batch.trace Batch.Check ~seed ~seconds ~jobs
    | "lint_heavy", false -> Batch.measure Batch.Lint ~seed ~seconds ~jobs
    | "lint_heavy", true -> Batch.trace Batch.Lint ~seed ~seconds ~jobs
    | "serve_edits", false -> Daemon.measure ~shelley ~seed ~seconds ~jobs
    | "serve_edits", true -> Daemon.trace ~shelley ~seed ~seconds ~jobs
    | _ -> usage ()
  in
  Run.print ~catalog:(if traced then Run.per_layer else Run.end_to_end) result;
  exit (if result.Run.failed = 0 then 0 else 1)
