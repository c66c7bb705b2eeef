type exit_info = {
  exit_index : int;
  exit_line : int;
  exit_next : string list option;
  exit_has_value : bool;
}

type lowered = {
  low_name : string;
  low_prog : Prog.t;
  low_exits : exit_info list;
  low_warnings : string list;
}

let rec strip_markers (p : Prog.t) : Prog.t =
  match p with
  | Call f -> if Symbol.exit_marker f <> None then Prog.skip else p
  | Skip | Return -> p
  | Seq (a, b) -> Prog.seq (strip_markers a) (strip_markers b)
  | If (a, b) -> Prog.if_ (strip_markers a) (strip_markers b)
  | Loop body -> Prog.loop (strip_markers body)
  | Par (a, b) -> Prog.par (strip_markers a) (strip_markers b)

(* The dotted field path of an expression rooted at [self], innermost first:
   self.a.b → Some ["a"; "b"]. *)
let rec self_path = function
  | Mpy_ast.Name "self" -> Some []
  | Mpy_ast.Attr (base, field) -> Option.map (fun path -> path @ [ field ]) (self_path base)
  | _ -> None

(* Events of an expression, in evaluation order. *)
let field_call_events expr =
  let events = ref [] in
  let rec walk = function
    | Mpy_ast.Name _ | Str _ | Int _ | Bool _ | None_lit -> ()
    | Attr (base, _) -> walk base
    | Call (target, args) -> (
      (* Python evaluates the callee object, then arguments, then calls. *)
      (match target with
      | Attr (receiver, _) -> walk receiver
      | other -> walk other);
      List.iter walk args;
      match target with
      | Attr (receiver, meth) -> (
        match self_path receiver with
        | Some (_ :: _ as path) ->
          events := Symbol.intern (String.concat "." path ^ "." ^ meth) :: !events
        | Some [] | None -> ())
      | _ -> ())
    | List items | Tuple items -> List.iter walk items
    | Binop (_, a, b) ->
      walk a;
      walk b
    | Unop (_, e) -> walk e
    | Subscript (e, i) ->
      walk e;
      walk i
  in
  walk expr;
  List.rev !events

let events_prog expr = Prog.seq_list (List.map Prog.call (field_call_events expr))

(* --- Concurrency primitives ---------------------------------------------------- *)

(* [asyncio.create_task(e)], [uasyncio.create_task(e)] or bare
   [create_task(e)]: the spawned coroutine [e]. *)
let create_task_arg = function
  | Mpy_ast.Call (Name "create_task", [ e ])
  | Mpy_ast.Call (Attr (Name ("asyncio" | "uasyncio"), "create_task"), [ e ]) ->
    Some e
  | _ -> None

(* [asyncio.gather(e1, …, en)] or bare [gather(e1, …, en)]: the joined
   coroutines. *)
let gather_args = function
  | Mpy_ast.Call (Name "gather", args)
  | Mpy_ast.Call (Attr (Name ("asyncio" | "uasyncio"), "gather"), args) ->
    Some args
  | _ -> None

(* A statement that spawns or joins tasks: [create_task(e)] and [gather(…)]
   calls, bare or assigned to a handle. [await] was already erased by the
   parser, so [await asyncio.gather(…)] arrives here as a plain call. *)
let concurrency_of_stmt (s : Mpy_ast.stmt) =
  let of_expr e =
    match create_task_arg e with
    | Some task -> Some (`Spawn task)
    | None -> (
      match gather_args e with
      | Some args -> Some (`Join args)
      | None -> None)
  in
  match s.stmt with
  | Expr_stmt e | Assign (_, e) -> of_expr e
  | _ -> None

let lower_block ~method_name block =
  let exits = ref [] in
  let warnings = ref [] in
  let next_exit = ref 0 in
  let warn line msg = warnings := Printf.sprintf "line %d: %s" line msg :: !warnings in
  let classify_strings items =
    let names =
      List.map
        (function
          | Mpy_ast.Str s -> Some s
          | _ -> None)
        items
    in
    if List.for_all Option.is_some names then Some (List.filter_map Fun.id names) else None
  in
  let fresh_exit line value =
    let ret_next, ret_has_value =
      (* The Table 2 shapes: a list of op names, or a tuple whose first
         component is such a list and whose rest is a user value. *)
      match value with
      | None | Some Mpy_ast.None_lit -> (None, false)
      | Some (Mpy_ast.List items) -> (classify_strings items, false)
      | Some (Mpy_ast.Tuple (Mpy_ast.List items :: rest)) -> (classify_strings items, rest <> [])
      | Some _ -> (None, true)
    in
    let k = !next_exit in
    incr next_exit;
    exits :=
      { exit_index = k; exit_line = line; exit_next = ret_next; exit_has_value = ret_has_value }
      :: !exits;
    k
  in
  let rec lower_stmts stmts =
    match stmts with
    | [] -> Prog.skip
    | s :: rest -> (
      match concurrency_of_stmt s with
      | Some (`Spawn task) ->
        (* Fork without join: the spawned coroutine's events interleave with
           everything the method does after the spawn point. *)
        Prog.par (events_prog task) (lower_stmts rest)
      | Some (`Join args) ->
        (* Fork-join: the gathered coroutines interleave with each other,
           and the method resumes only once all of them finish. *)
        let joined = Prog.par_list (List.map events_prog args) in
        if rest = [] then joined else Prog.seq joined (lower_stmts rest)
      | None ->
        let p = lower_stmt s in
        if rest = [] then p else Prog.seq p (lower_stmts rest))
  and lower_stmt (s : Mpy_ast.stmt) =
    match s.stmt with
    | Expr_stmt e -> events_prog e
    | Assign (_, value) -> events_prog value
    | Return value ->
      let value_effects =
        match value with
        | Some e -> events_prog e
        | None -> Prog.skip
      in
      let k = fresh_exit s.stmt_line value in
      Prog.seq_list
        [ value_effects; Prog.call (Symbol.method_exit ~method_name k); Prog.return ]
    | If (branches, else_block) ->
      (* Conditions are evaluated in order; a branch body runs after its own
         condition and all earlier (failed) ones. The paper erases conditions
         entirely, so we approximate by emitting each taken branch's
         condition effects before its body and offering all branches as a
         nondeterministic choice. *)
      let arms =
        List.mapi
          (fun i (cond, body) ->
            let earlier =
              List.filteri (fun j _ -> j < i) branches
              |> List.map (fun (c, _) -> events_prog c)
            in
            Prog.seq_list (earlier @ [ events_prog cond; lower_stmts body ]))
          branches
      in
      let else_arm =
        let all_conds = List.map (fun (c, _) -> events_prog c) branches in
        match else_block with
        | Some body -> Prog.seq_list (all_conds @ [ lower_stmts body ])
        | None -> Prog.seq_list all_conds
      in
      Prog.choice (arms @ [ else_arm ])
    | While (cond, body) ->
      let cond_effects = events_prog cond in
      Prog.seq cond_effects (Prog.loop (Prog.seq (lower_stmts body) cond_effects))
    | For (_, iter, body) -> Prog.seq (events_prog iter) (Prog.loop (lower_stmts body))
    | Match (scrutinee, cases) ->
      let effects = events_prog scrutinee in
      Prog.seq effects (Prog.choice (List.map (fun (_, body) -> lower_stmts body) cases))
    | Pass | Import -> Prog.skip
    | Break ->
      warn s.stmt_line "'break' is approximated as 'skip' (extra loop behaviors possible)";
      Prog.skip
    | Continue ->
      warn s.stmt_line "'continue' is approximated as 'skip'";
      Prog.skip
  in
  let prog = lower_stmts block in
  (prog, List.rev !exits, List.rev !warnings)

let lower_method (meth : Mpy_ast.method_def) =
  let prog, exits, warnings = lower_block ~method_name:meth.meth_name meth.meth_body in
  { low_name = meth.meth_name; low_prog = prog; low_exits = exits; low_warnings = warnings }
