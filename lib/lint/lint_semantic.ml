type thresholds = {
  max_behavior_size : int;
  max_star_height : int;
  entail_fuel : int;
  race_fuel : int;
}

let default_thresholds =
  { max_behavior_size = 200; max_star_height = 3; entail_fuel = 20_000; race_fuel = 50_000 }

type claim_verdict =
  | Kept
  | Redundant of string list
  | Subsumed of string list
  | Undecided

type contradiction = {
  claim_a : string;
  claim_b : string;
  witness : Trace.t;
}

type claim_analysis = {
  verdicts : (string * claim_verdict) list;
  contradictions : contradiction list;
  core : string list;
  undecided : int;
}

type sessions = {
  calls : unit -> Entail.session;
  universal : unit -> Entail.session;
}

type ctx = {
  limits : Limits.t;
  thresholds : thresholds;
  env : string -> Model.t option;
  cls : Mpy_ast.class_def;
  model : Model.t;
  mutable claim_memo : claim_analysis option;
  expansion : Limits.t -> Nfa.t;
  sessions : sessions;
}

(* [once build] runs [build] on the first call only. An exception it raised
   is kept and raised again on every later call, so each rule that needs
   the value still fails on its own (a blown budget: one SY090 per rule). *)
let once build =
  let memo = lazy (try Ok (build ()) with e -> Error e) in
  fun () ->
    match Lazy.force memo with
    | Ok v -> v
    | Error e -> raise e

(* --- The class's full expansion ---------------------------------------------

   The claim rules read it (through the subsystem-call automaton) under the
   caller's limits, SY112 a racing field's witness under the race budget.
   It is built once, by the first rule that asks, under that rule's budget,
   with a ledger of its own. A later rule is charged what the build drew:
   the costliest shuffle product ({!Limits.peak}). A budget below that runs
   out exactly as its own build would have, and the diagnostic names its
   own limit. Only a budget looser than a build that ran out of
   configurations builds again. The budgets differ only in [max_configs]. *)

let shuffle_configs = "shuffle-product configurations"

let expansion model =
  let built = ref None in
  let build (within : Limits.t) =
    let ledger =
      Limits.make ~max_states:within.Limits.max_states ~max_configs:within.Limits.max_configs
        ~max_regex_size:within.Limits.max_regex_size ?deadline:within.Limits.deadline ()
    in
    let b = (ledger, try Ok (Usage.expanded_nfa ~limits:ledger model) with e -> Error e) in
    built := Some b;
    b
  in
  fun (within : Limits.t) ->
    let ledger, result =
      match !built with
      | Some (ledger, Error (Limits.Budget_exceeded { resource; _ }))
        when String.equal resource shuffle_configs
             && ledger.Limits.max_configs < within.Limits.max_configs ->
        build within
      | Some b -> b
      | None -> build within
    in
    if Limits.peak ledger ~resource:shuffle_configs > within.Limits.max_configs then
      Limits.exceeded ~resource:shuffle_configs ~limit:within.Limits.max_configs;
    match result with
    | Ok nfa -> nfa
    | Error e -> raise e

(* The alphabet all claim automata are built over: the class's subsystem-call
   events plus every atom any claim mentions. *)
let claim_alphabet (model : Model.t) impl =
  List.fold_left
    (fun acc (_, formula) -> Symbol.Set.union acc (Ltlf.atoms formula))
    (Nfa.alphabet impl) model.Model.claims

let sessions ?expansion:given ~limits model =
  let expanded = match given with Some e -> e | None -> expansion model in
  let calls =
    once (fun () ->
        let impl = lazy (expanded limits) in
        Entail.session ~limits ~impl:(Claims.subsystem_call_nfa ~impl model) ())
  in
  let universal =
    once (fun () ->
        let alphabet = claim_alphabet model (Entail.impl (calls ())) in
        Entail.session ~limits ~impl:(Nfa.universal alphabet) ())
  in
  { calls; universal }

let no_calls sessions = Symbol.Set.is_empty (Nfa.alphabet (Entail.impl (sessions.calls ())))

(* Every claim rule opens both sessions, so a class with claims opens them
   here, under a span of its own: each rule's span then holds only its own
   queries. A failed build is kept and raised again in each rule. *)
let make_ctx ~limits ~thresholds ~env ~cls ~model =
  let expansion = expansion model in
  let sessions = sessions ~expansion ~limits model in
  if model.Model.claims <> [] then
    Obs.with_span ~args:[ ("class", model.Model.name) ] "lint.claim-sessions" (fun () ->
        try ignore (sessions.universal ()) with _ -> ());
  { limits; thresholds; env; cls; model; claim_memo = None; expansion; sessions }

(* --- SY101 dead operation --------------------------------------------------

   An operation is dead when no *accepted* usage word contains it: callers
   can never legally exercise it to completion. This unifies (and subsumes,
   at the language level) the two graph-reachability warnings SY006/SY007:
   the witness language  L(usage) ∩ Σ*·op·Σ*  is nonempty iff some state
   reachable from the start steps on the operation to a state that can
   reach acceptance, so one trim of the usage NFA decides every operation:
   its surviving alphabet is the set of live operations ({!Nfa.live_symbols},
   which reads it off without building the trimmed automaton). That takes
   one forward and one backward pass, no subset construction, and so no
   budget that could run out. *)

let dead_operation ctx =
  let model = ctx.model in
  if model.Model.operations = [] || Model.initial_ops model = []
     || Model.final_ops model = []
  then [] (* SY002/SY003 already explain why nothing is usable *)
  else begin
    let live = Nfa.live_symbols (Depgraph.usage_nfa model) in
    List.filter_map
      (fun (op : Model.operation) ->
        if Symbol.Set.mem (Model.entry_symbol op) live then None
        else
          Some
            ( Some op.op_line,
              Printf.sprintf
                "operation '%s' occurs in no accepted usage of %s: no caller can \
                 legally exercise it"
                op.op_name model.Model.name ))
      model.Model.operations
  end

(* --- Claim rules (SY102/SY103/SY104) --------------------------------------- *)

(* Does [formula] hold on every trace over the claim alphabet, the empty
   one included? SY102 asks it of a claim, SY103 of the claim's negation. *)
let holds_on_every_trace ctx formula =
  Result.is_ok (Ltl_check.check (ctx.sessions.universal ()) formula)

let vacuous_claim ctx =
  let model = ctx.model in
  if model.Model.claims = [] then []
  else begin
    let no_calls = no_calls ctx.sessions in
    List.filter_map
      (fun (text, formula) ->
        if no_calls then
          Some
            ( Some model.Model.line,
              Printf.sprintf
                "claim '%s' is vacuous: %s performs no subsystem calls, so the claim \
                 is checked only against the empty trace"
                text model.Model.name )
        else if holds_on_every_trace ctx formula then
          Some
            ( Some model.Model.line,
              Printf.sprintf
                "claim '%s' is vacuous: it holds over every trace (a tautology over \
                 the class's events)"
                text )
        else None)
      model.Model.claims
  end

let unsatisfiable_claim ctx =
  let model = ctx.model in
  if
    model.Model.claims = []
    || Symbol.Set.is_empty (Nfa.alphabet (Entail.impl (ctx.sessions.universal ())))
  then []
  else
    List.filter_map
      (fun (text, formula) ->
        if holds_on_every_trace ctx (Ltlf.neg formula) then
          Some
            ( Some model.Model.line,
              Printf.sprintf
                "claim '%s' is unsatisfiable: no trace at all can satisfy it, so \
                 verification can only fail"
                text )
        else None)
      model.Model.claims

(* --- Claim entailment analysis (SY104/SY109/SY110/SY111) -------------------

   One shared pass over the claim set, built on the on-the-fly entailment
   engine ({!Entail}) instead of the old pairwise full-product language
   tricks. Every question over the model's traces is a lookup in one
   {!Entail.table} of the class's claims, built by the first such question
   (or, when that table runs out of budget, a query of its own, as before).
   A single reverse-declaration-order greedy sweep decides, for each claim
   against the still-kept others, whether it is

   - [Subsumed]: the conjunction of other claims implies it on *every*
     trace (checked over the universal automaton) — a purely logical
     duplication, independent of the implementation;
   - [Redundant]: the model's usage language together with the kept claims
     entails it — verification cannot fail on it while the others hold;
   - [Kept] or [Undecided] (entailment budget exhausted: no finding).

   Entailment is monotone in its hypotheses: if the usage language alone
   entails a claim, so does the language with any set of kept claims, and
   the greedy minimization of that set would drop every one of them. So
   before the question with every kept claim as a hypothesis, one with
   none settles the common case, [Redundant []], with no minimization. A
   probe that does not come back [Entailed] settles nothing (and a probe
   that runs out of budget is not counted as undecided): the full question
   then is asked as it would have been, unless there are no kept claims,
   when the probe was that question.

   A set of hypotheses that no trace satisfies entails every goal on every
   trace, so a subsumption question whose hypotheses hold such a pair is
   [Entailed] with no search of its own (counted as
   [lint.claims.unsat_hypotheses]): the answer its search would have given,
   had that search stayed in budget. A pair is decided once per class, on
   first need. If some model trace satisfies both claims (a lookup in the
   table) they are satisfiable; only a pair no model trace satisfies is
   searched over every trace, as a two-formula witness question. A pair
   search that runs out settles nothing and is not counted as undecided,
   and the rule is off when the table ran out of budget. So the rule spares
   searches and changes no answer, except that a question whose own search
   would run out gets the pair's answer.

   Sweeping in reverse order makes the *first-declared* claim of a mutually
   equivalent group the one that survives (lowest line wins) and the later
   duplicates the ones reported, deterministically and exactly once. Each
   drop is justified against the currently-kept set, so by cut the final
   core still entails every dropped claim — the greedy minimal core SY111
   reports.

   Contradiction detection ([SY110]) is pairwise over the original claim
   set: a pair is contradictory when no model trace satisfies both although
   each is individually model-satisfiable; the witness (the shorter of the
   two individual satisfiability witnesses) then necessarily violates the
   other claim of the pair. A claim the usage language alone entails holds
   on every model trace, so it is compatible with every satisfiable claim:
   its pairs need no joint search. *)

let quoted_texts texts = String.concat ", " (List.map (Printf.sprintf "'%s'") texts)

let analyze_claims ?fuel ?sessions:given ~limits (model : Model.t) =
  let claims = Array.of_list model.Model.claims in
  let n = Array.length claims in
  let text i = fst claims.(i) in
  let formula i = snd claims.(i) in
  let ({ calls; universal } as sessions) = Option.value given ~default:(sessions ~limits model) in
  let no_calls = no_calls sessions in
  let undecided = ref 0 in
  let give_up () =
    incr undecided;
    Obs.count "entail.budget_exhausted" 1
  in
  (* Every question over the model goes to one table of the claims, built
     by the first; the subsumption questions, over every trace, stay per
     query unless two of their hypotheses exclude each other. *)
  let table = lazy (Entail.table (calls ()) ?fuel (Array.to_list (Array.map snd claims))) in
  (* Can no trace satisfy claims [a] and [b] together? A model trace that
     satisfies both is a trace, so the table rules most pairs out; only a
     pair the model never satisfies is searched over every trace. A search
     that runs out, or a table that did, says no. *)
  let exclusive = Hashtbl.create 16 in
  let excludes a b =
    match Hashtbl.find_opt exclusive (a, b) with
    | Some e -> e
    | None ->
      let t = Lazy.force table in
      let e =
        Entail.tabled t
        && Entail.table_witness t [ a; b ] = Ok None
        && Entail.joint_witness (universal ()) ?fuel [ formula a; formula b ] = Ok None
      in
      Hashtbl.add exclusive (a, b) e;
      e
  in
  let rec unsatisfiable = function
    | [] -> false
    | a :: rest -> List.exists (excludes a) rest || unsatisfiable rest
  in
  let verdict base hyps goal =
    match base with
    | `Model -> Entail.table_implies (Lazy.force table) ~hyps goal
    | `Every_trace when unsatisfiable hyps ->
      Obs.count "lint.claims.unsat_hypotheses" 1;
      Entail.Entailed
    | `Every_trace ->
      Entail.implies (universal ()) ?fuel ~hyps:(List.map formula hyps) (formula goal)
  in
  let implies_over base hyps goal =
    match verdict base hyps goal with
    | Entail.Entailed -> Some true
    | Entail.Not_entailed _ -> Some false
    | Entail.Unknown _ ->
      give_up ();
      None
  in
  let witness_over idxs =
    match Entail.table_witness (Lazy.force table) idxs with
    | Ok w -> Some w
    | Error _ ->
      give_up ();
      None
  in
  (* Greedy minimization of an already-sufficient hypothesis set: drop each
     index whose removal keeps the entailment; sound because every retained
     justification is re-checked against the shrunken set. *)
  let minimize base idxs goal =
    List.fold_left
      (fun keep j ->
        let rest = List.filter (fun k -> k <> j) keep in
        if implies_over base rest goal = Some true then rest else keep)
      idxs idxs
  in
  let redundant i others =
    match verdict `Model [] i with
    | Entail.Entailed ->
      Obs.count "lint.claims.redundant_alone" 1;
      Some (Redundant [])
    | Entail.Not_entailed _ | Entail.Unknown _ when others <> [] ->
      if implies_over `Model others i = Some true then
        Some (Redundant (List.map text (minimize `Model others i)))
      else None
    | Entail.Not_entailed _ -> None
    | Entail.Unknown _ ->
      give_up ();
      None
  in
  let verdicts = Array.make n Kept in
  let kept = ref (List.init n Fun.id) in
  if not no_calls then begin
    for i = n - 1 downto 0 do
      let others = List.filter (fun j -> j <> i) !kept in
      let undecided_before = !undecided in
      let subsuming =
        if others = [] then None
        else if implies_over `Every_trace others i = Some true then
          match minimize `Every_trace others i with
          | [] -> None (* a tautology: SY102's business, not subsumption *)
          | subset -> Some (Subsumed (List.map text subset))
        else None
      in
      let verdict =
        match subsuming with
        | Some v -> Some v
        | None -> if n >= 2 then redundant i others else None
      in
      match verdict with
      | Some v ->
        verdicts.(i) <- v;
        kept := others
      | None ->
        (* A budget-exhausted query means the claim's status is open, not
           settled: surface that instead of silently calling it essential. *)
        if !undecided > undecided_before then verdicts.(i) <- Undecided
    done
  end;
  let contradictions = ref [] in
  if (not no_calls) && n >= 2 then begin
    let sat = Array.init n (fun i -> witness_over [ i ]) in
    let alone i = verdicts.(i) = Redundant [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match (sat.(i), sat.(j)) with
        | Some (Some _), Some (Some _) when alone i || alone j ->
          Obs.count "lint.claims.pairs_settled" 1
        | Some (Some wi), Some (Some wj) -> begin
          match witness_over [ i; j ] with
          | Some None ->
            (* No model trace satisfies both; each individual witness thus
               violates the other claim. Report the shorter one. *)
            let c =
              if Trace.length wj < Trace.length wi then
                { claim_a = text j; claim_b = text i; witness = wj }
              else { claim_a = text i; claim_b = text j; witness = wi }
            in
            contradictions := c :: !contradictions
          | Some (Some _) | None -> ()
        end
        | _ -> ()
      done
    done
  end;
  {
    verdicts = List.init n (fun i -> (text i, verdicts.(i)));
    contradictions = List.rev !contradictions;
    core = List.map text !kept;
    undecided = !undecided;
  }

let claim_analysis ctx =
  match ctx.claim_memo with
  | Some a -> a
  | None ->
    let a =
      analyze_claims ~fuel:ctx.thresholds.entail_fuel ~sessions:ctx.sessions
        ~limits:ctx.limits ctx.model
    in
    ctx.claim_memo <- Some a;
    a

let redundant_claim ctx =
  if ctx.model.Model.claims = [] then []
  else
    (claim_analysis ctx).verdicts
    |> List.filter_map (fun (text, verdict) ->
           match verdict with
           | Redundant [] ->
             Some
               ( Some ctx.model.Model.line,
                 Printf.sprintf
                   "claim '%s' is redundant: the usage language of %s alone already \
                    entails it"
                   text ctx.model.Model.name )
           | Redundant subset ->
             Some
               ( Some ctx.model.Model.line,
                 Printf.sprintf
                   "claim '%s' is redundant: the usage language of %s and claim(s) %s \
                    already entail it"
                   text ctx.model.Model.name (quoted_texts subset) )
           | Kept | Subsumed _ | Undecided -> None)

let subsumed_claim ctx =
  if ctx.model.Model.claims = [] then []
  else
    (claim_analysis ctx).verdicts
    |> List.filter_map (fun (text, verdict) ->
           match verdict with
           | Subsumed subset ->
             Some
               ( Some ctx.model.Model.line,
                 Printf.sprintf
                   "claim '%s' is subsumed: claim(s) %s already imply it on every trace"
                   text (quoted_texts subset) )
           | Kept | Redundant _ | Undecided -> None)

let contradictory_claims ctx =
  if ctx.model.Model.claims = [] then []
  else
    (claim_analysis ctx).contradictions
    |> List.map (fun c ->
           let witness =
             match c.witness with
             | [] -> "the empty trace"
             | w -> Printf.sprintf "trace [%s]" (Trace.to_string w)
           in
           ( Some ctx.model.Model.line,
             Printf.sprintf
               "claims '%s' and '%s' cannot both hold on %s: %s satisfies the former \
                but violates the latter"
               c.claim_a c.claim_b ctx.model.Model.name witness ))

let claim_set_minimizable ctx =
  if ctx.model.Model.claims = [] then []
  else begin
    let a = claim_analysis ctx in
    let total = List.length a.verdicts in
    let dropped = total - List.length a.core in
    if dropped = 0 then []
    else
      [
        ( Some ctx.model.Model.line,
          Printf.sprintf "the claim set of %s is minimizable: %d of %d claim(s) can be \
                          dropped; minimal core: %s"
            ctx.model.Model.name dropped total
            (match a.core with
            | [] -> "(empty: the usage language already enforces every claim)"
            | core -> quoted_texts core) );
      ]
  end

(* --- SY105 unused declared subsystem --------------------------------------- *)

let unused_subsystem ctx =
  let model = ctx.model in
  let called_scopes =
    List.fold_left
      (fun acc (op : Model.operation) ->
        Symbol.Set.fold
          (fun sym acc ->
            match Symbol.split_scope sym with
            | Some (scope, _) -> scope :: acc
            | None -> acc)
          (Regex.alphabet (Model.behavior_of_op op))
          acc)
      [] model.Model.operations
  in
  List.filter_map
    (fun field ->
      if List.mem field called_scopes then None
      else
        Some
          ( Some model.Model.line,
            Printf.sprintf
              "declared subsystem '%s' is never called by any operation of %s" field
              model.Model.name ))
    model.Model.declared_subsystems

(* --- SY106 undeclared subsystem call --------------------------------------- *)

let undeclared_subsystem_call ctx =
  let model = ctx.model in
  let escaping field =
    (not (List.mem field model.Model.declared_subsystems))
    && (match List.assoc_opt field model.Model.subsystem_fields with
       | Some cls_name -> ctx.env cls_name <> None
       | None -> false)
  in
  Invocation.calls_on_fields ~fields:escaping ctx.cls
  |> List.map (fun (line, field, meth) ->
         let cls_name =
           Option.value ~default:"?" (List.assoc_opt field model.Model.subsystem_fields)
         in
         ( Some line,
           Printf.sprintf
             "call '%s.%s' escapes verification: field '%s' holds modeled class %s \
              but is not declared in @sys([...])"
             field meth field cls_name ))

(* --- SY107 unreachable code after return ----------------------------------- *)

(* The lowering erases statements of no interest to [Skip], so "unreachable"
   is only reported when the dead region still performs calls (or returns) —
   i.e. when the dead code would have mattered to the inferred behavior. *)
let unreachable_after_return ctx =
  let interesting p =
    (not (Symbol.Set.is_empty (Prog.calls p))) || Prog.has_return p
  in
  let rec dead = function
    | Prog.Seq (a, b) -> (Prog.always_returns a && interesting b) || dead a || dead b
    | Prog.If (a, b) | Prog.Par (a, b) -> dead a || dead b
    | Prog.Loop p -> dead p
    | Prog.Call _ | Prog.Skip | Prog.Return -> false
  in
  List.filter_map
    (fun (op : Model.operation) ->
      if dead op.plain_body then
        Some
          ( Some op.op_line,
            Printf.sprintf
              "operation '%s' performs calls after a point where every path has \
               returned: they can never execute"
              op.op_name )
      else None)
    ctx.model.Model.operations

(* --- SY108 behavior blowup -------------------------------------------------- *)

let behavior_blowup ctx =
  let t = ctx.thresholds in
  List.filter_map
    (fun (op : Model.operation) ->
      let r = Model.behavior_of_op op in
      let size = Regex.size r in
      let height = Regex.star_height r in
      if size > t.max_behavior_size then
        Some
          ( Some op.op_line,
            Printf.sprintf
              "behavior of '%s' has %d regex nodes (threshold %d): downstream \
               automaton constructions may blow up"
              op.op_name size t.max_behavior_size )
      else if height > t.max_star_height then
        Some
          ( Some op.op_line,
            Printf.sprintf
              "behavior of '%s' nests %d loops (star-height threshold %d): \
               downstream automaton constructions may blow up"
              op.op_name height t.max_star_height )
      else None)
    ctx.model.Model.operations

(* --- SY112 interleaved protocol race ----------------------------------------

   A composite class whose async operations spawn concurrent work can break
   a subsystem's protocol on *some* schedules only. The checker's generic
   invalid-usage error does not say that the bug is concurrency: here we
   re-run the subsystem inclusion check on the sequentialized model (every
   [Par] forced to run its left branch to completion first) and flag SY112
   exactly when the interleaved model fails where the sequentialized one
   passes — reporting a shortest offending schedule as the witness.

   Both verdicts are about the field's projection ({!Usage.holds}), and
   projection distributes over shuffle: a fork whose branches the field
   does not both see projects to one branch, in either model. So a field
   no operation's projection keeps a shuffle for gets the same verdict on
   both models ({!Usage.interleaves}), and cannot race: it is settled with
   no search. A field that keeps a shuffle runs both projected searches,
   and a race then goes straight to the unprojected witness search over
   the class's shared expansion ({!Usage.violation}). Every search is
   capped by [thresholds.race_fuel] on top of the caller's limits, and a
   search that runs out reports SY090. *)

let rec sequentialize_prog (p : Prog.t) : Prog.t =
  match p with
  | Prog.Call _ | Prog.Skip | Prog.Return -> p
  | Prog.Seq (a, b) -> Prog.seq (sequentialize_prog a) (sequentialize_prog b)
  | Prog.If (a, b) -> Prog.if_ (sequentialize_prog a) (sequentialize_prog b)
  | Prog.Loop body -> Prog.loop (sequentialize_prog body)
  | Prog.Par (a, b) -> Prog.seq (sequentialize_prog a) (sequentialize_prog b)

let rec prog_has_par = function
  | Prog.Par _ -> true
  | Prog.Seq (a, b) | Prog.If (a, b) -> prog_has_par a || prog_has_par b
  | Prog.Loop p -> prog_has_par p
  | Prog.Call _ | Prog.Skip | Prog.Return -> false

let sequentialize_model (model : Model.t) =
  {
    model with
    Model.operations =
      List.map
        (fun (op : Model.operation) ->
          let marked_body = sequentialize_prog op.marked_body in
          let exits =
            List.map
              (fun (e : Model.exit_point) ->
                { e with Model.behavior = Regex.sequentialize e.behavior })
              op.exits
          in
          {
            op with
            Model.marked_body;
            marked_behavior = Extract.marked_behavior ~method_name:op.op_name marked_body exits;
            plain_body = sequentialize_prog op.plain_body;
            exits;
          })
        model.Model.operations;
  }

let interleaved_protocol_race ctx =
  let model = ctx.model in
  if
    model.Model.kind <> `Composite
    || not
         (List.exists
            (fun (op : Model.operation) -> prog_has_par op.Model.marked_body)
            model.Model.operations)
  then []
  else begin
    let race_limits =
      Limits.make ~max_states:ctx.limits.Limits.max_states
        ~max_configs:(min ctx.limits.Limits.max_configs ctx.thresholds.race_fuel)
        ~max_regex_size:ctx.limits.Limits.max_regex_size
        ?deadline:ctx.limits.Limits.deadline ()
    in
    let seq_model = lazy (sequentialize_model model) in
    let interleaved = lazy (ctx.expansion race_limits) in
    List.filter_map
      (fun field ->
        match Model.subsystem_class model field with
        | None -> None
        | Some subsystem_class ->
          if not (Usage.interleaves model ~field) then begin
            Obs.count "lint.race.shuffle_free_fields" 1;
            None
          end
          else if
            Usage.holds ~limits:race_limits ~env:ctx.env model ~field ~subsystem_class
            (* fails even without preemption: the checker's business *)
            || not
                 (Usage.holds ~limits:race_limits ~env:ctx.env (Lazy.force seq_model) ~field
                    ~subsystem_class)
          then None
          else (
            match
              Usage.violation ~limits:race_limits ~impl:interleaved ~env:ctx.env model ~field
                ~subsystem_class
            with
            | Some (Report.Invalid_subsystem_usage { counterexample; failure; _ }) ->
              let how =
                match failure with
                | Report.Not_allowed op ->
                  Printf.sprintf "'%s.%s' is not allowed at that point" field op
                | Report.Not_final op ->
                  Printf.sprintf "it strands '%s' in a non-final state after '%s.%s'"
                    field field op
              in
              Some
                ( Some model.Model.line,
                  Printf.sprintf
                    "interleaving race on subsystem '%s': schedule [%s] violates the %s \
                     protocol (%s), yet every schedule that runs spawned tasks to \
                     completion without preemption is safe"
                    field
                    (Trace.to_string counterexample)
                    subsystem_class how )
            | Some _ | None -> None))
      model.Model.declared_subsystems
  end

let rules =
  [
    (Rules.dead_operation, dead_operation);
    (Rules.vacuous_claim, vacuous_claim);
    (Rules.unsatisfiable_claim, unsatisfiable_claim);
    (Rules.redundant_claim, redundant_claim);
    (Rules.unused_subsystem, unused_subsystem);
    (Rules.undeclared_subsystem_call, undeclared_subsystem_call);
    (Rules.unreachable_after_return, unreachable_after_return);
    (Rules.behavior_blowup, behavior_blowup);
    (Rules.subsumed_claim, subsumed_claim);
    (Rules.contradictory_claims, contradictory_claims);
    (Rules.claim_set_minimizable, claim_set_minimizable);
    (Rules.interleaved_protocol_race, interleaved_protocol_race);
  ]
