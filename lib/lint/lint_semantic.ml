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

type ctx = {
  limits : Limits.t;
  thresholds : thresholds;
  env : string -> Model.t option;
  cls : Mpy_ast.class_def;
  model : Model.t;
  mutable claim_memo : claim_analysis option;
  call_nfa : unit -> Nfa.t;
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

let make_ctx ~limits ~thresholds ~env ~cls ~model =
  {
    limits;
    thresholds;
    env;
    cls;
    model;
    claim_memo = None;
    call_nfa = once (fun () -> Claims.subsystem_call_nfa ~limits model);
  }

(* --- SY101 dead operation --------------------------------------------------

   An operation is dead when no *accepted* usage word contains it: callers
   can never legally exercise it to completion. This unifies (and subsumes,
   at the language level) the two graph-reachability warnings SY006/SY007:
   the witness language  L(usage) ∩ Σ*·op·Σ*  is empty iff the operation is
   unreachable from every initial operation or no final operation is
   reachable beyond it. *)

let dead_operation ctx =
  let model = ctx.model in
  if model.Model.operations = [] || Model.initial_ops model = []
     || Model.final_ops model = []
  then [] (* SY002/SY003 already explain why nothing is usable *)
  else begin
    let dfa = Determinize.determinize ~limits:ctx.limits (Depgraph.usage_nfa model) in
    let alphabet = Dfa.alphabet dfa in
    List.filter_map
      (fun (op : Model.operation) ->
        let sym = Model.entry_symbol op in
        let dead =
          if not (Dfa.mem_alphabet dfa sym) then true
          else begin
            (* Σ*·op·Σ* over the usage alphabet, as a two-state DFA. *)
            let contains =
              Dfa.create ~alphabet ~num_states:2 ~start:0 ~accept:[ 1 ]
                ~next:(fun s x -> if s = 1 || Symbol.equal x sym then 1 else s)
            in
            Dfa.is_empty (Dfa.intersect dfa contains)
          end
        in
        if dead then
          Some
            ( Some op.op_line,
              Printf.sprintf
                "operation '%s' occurs in no accepted usage of %s: no caller can \
                 legally exercise it"
                op.op_name model.Model.name )
        else None)
      model.Model.operations
  end

(* --- Claim rules (SY102/SY103/SY104) --------------------------------------- *)

(* The alphabet all claim automata are built over: the class's subsystem-call
   events plus every atom any claim mentions. *)
let claim_alphabet_of (model : Model.t) impl =
  List.fold_left
    (fun acc (_, formula) -> Symbol.Set.union acc (Ltlf.atoms formula))
    (Nfa.alphabet impl) model.Model.claims

let claim_alphabet ctx impl = claim_alphabet_of ctx.model impl

let universal_nfa alphabet =
  Nfa.create ~num_states:1 ~start:[ 0 ] ~accept:[ 0 ]
    ~transitions:(List.map (fun sym -> (0, sym, 0)) (Symbol.Set.elements alphabet))
    ()

let vacuous_claim ctx =
  let model = ctx.model in
  if model.Model.claims = [] then []
  else begin
    let impl = ctx.call_nfa () in
    let alphabet = claim_alphabet ctx impl in
    let no_calls = Symbol.Set.is_empty (Nfa.alphabet impl) in
    List.filter_map
      (fun (text, formula) ->
        if no_calls then
          Some
            ( Some model.Model.line,
              Printf.sprintf
                "claim '%s' is vacuous: %s performs no subsystem calls, so the claim \
                 is checked only against the empty trace"
                text model.Model.name )
        else if
          (not (Symbol.Set.is_empty alphabet))
          && Result.is_ok
               (Ltl_check.check ~limits:ctx.limits ~impl:(universal_nfa alphabet) formula)
        then
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
  if model.Model.claims = [] then []
  else begin
    let impl = ctx.call_nfa () in
    let alphabet = claim_alphabet ctx impl in
    if Symbol.Set.is_empty alphabet then []
    else
      List.filter_map
        (fun (text, formula) ->
          let nfa =
            Tableau.to_nfa ~limits:ctx.limits
              ~alphabet:(Symbol.Set.elements alphabet)
              formula
          in
          (* The empty trace also satisfies a claim; a claim is contradictory
             only when no trace — empty or not — models it. *)
          if Nfa.is_empty nfa && not (Ltlf.holds formula []) then
            Some
              ( Some model.Model.line,
                Printf.sprintf
                  "claim '%s' is unsatisfiable: no trace at all can satisfy it, so \
                   verification can only fail"
                  text )
          else None)
        model.Model.claims
  end

(* --- Claim entailment analysis (SY104/SY109/SY110/SY111) -------------------

   One shared pass over the claim set, built on the on-the-fly entailment
   engine ({!Entail}) instead of the old pairwise full-product language
   tricks. A single reverse-declaration-order greedy sweep decides, for each
   claim against the still-kept others, whether it is

   - [Subsumed]: the conjunction of other claims implies it on *every*
     trace (checked over the universal automaton) — a purely logical
     duplication, independent of the implementation;
   - [Redundant]: the model's usage language together with the kept claims
     entails it — verification cannot fail on it while the others hold;
   - [Kept] or [Undecided] (entailment budget exhausted: no finding).

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
   other claim of the pair. *)

let quoted_texts texts = String.concat ", " (List.map (Printf.sprintf "'%s'") texts)

let analyze_claims ?fuel ?impl ~limits (model : Model.t) =
  let claims = Array.of_list model.Model.claims in
  let n = Array.length claims in
  let text i = fst claims.(i) in
  let formula i = snd claims.(i) in
  let impl =
    match impl with
    | Some impl -> impl
    | None -> Claims.subsystem_call_nfa ~limits model
  in
  let alphabet = claim_alphabet_of model impl in
  let no_calls = Symbol.Set.is_empty (Nfa.alphabet impl) in
  let undecided = ref 0 in
  let implies_over base hyps goal =
    match Entail.implies ~limits ?fuel ~alphabet ~impl:base ~hyps goal with
    | Entail.Entailed -> Some true
    | Entail.Not_entailed _ -> Some false
    | Entail.Unknown _ ->
      incr undecided;
      None
  in
  let witness_over base formulas =
    match Entail.joint_witness ~limits ?fuel ~alphabet ~impl:base formulas with
    | Ok w -> Some w
    | Error _ ->
      incr undecided;
      None
  in
  (* Greedy minimization of an already-sufficient hypothesis set: drop each
     index whose removal keeps the entailment; sound because every retained
     justification is re-checked against the shrunken set. *)
  let minimize base idxs goal =
    List.fold_left
      (fun keep j ->
        let rest = List.filter (fun k -> k <> j) keep in
        if implies_over base (List.map formula rest) goal = Some true then rest else keep)
      idxs idxs
  in
  let verdicts = Array.make n Kept in
  let kept = ref (List.init n Fun.id) in
  if not no_calls then begin
    let universal = universal_nfa alphabet in
    for i = n - 1 downto 0 do
      let others = List.filter (fun j -> j <> i) !kept in
      let hyps = List.map formula others in
      let undecided_before = !undecided in
      let subsuming =
        if others = [] then None
        else if implies_over universal hyps (formula i) = Some true then
          match minimize universal others (formula i) with
          | [] -> None (* a tautology: SY102's business, not subsumption *)
          | subset -> Some (Subsumed (List.map text subset))
        else None
      in
      let verdict =
        match subsuming with
        | Some v -> Some v
        | None ->
          if n >= 2 && implies_over impl hyps (formula i) = Some true then
            Some (Redundant (List.map text (minimize impl others (formula i))))
          else None
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
    let sat = Array.init n (fun i -> witness_over impl [ formula i ]) in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match (sat.(i), sat.(j)) with
        | Some (Some wi), Some (Some wj) -> begin
          match witness_over impl [ formula i; formula j ] with
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
      analyze_claims ~fuel:ctx.thresholds.entail_fuel ~impl:(ctx.call_nfa ())
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
   passes — reporting a shortest offending schedule as the witness. The
   shuffle-product exploration of both checks is capped by
   [thresholds.race_fuel] on top of the caller's limits. *)

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
          {
            op with
            Model.marked_body = sequentialize_prog op.marked_body;
            plain_body = sequentialize_prog op.plain_body;
            exits =
              List.map
                (fun (e : Model.exit_point) ->
                  { e with Model.behavior = Regex.sequentialize e.behavior })
                op.exits;
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
    (* Both expansions are shared by every field: built on first need, once. *)
    let seq_model = lazy (sequentialize_model model) in
    let interleaved = once (fun () -> Usage.expanded_nfa ~limits:race_limits model) in
    let sequential =
      once (fun () -> Usage.expanded_nfa ~limits:race_limits (Lazy.force seq_model))
    in
    List.filter_map
      (fun field ->
        match Model.subsystem_class model field with
        | None -> None
        | Some subsystem_class when ctx.env subsystem_class = None ->
          None (* nothing to check, so nothing to expand *)
        | Some subsystem_class -> (
          match
            Usage.check_subsystem ~limits:race_limits ~impl:(interleaved ()) ~env:ctx.env
              model ~field ~subsystem_class
          with
          | Some (Report.Invalid_subsystem_usage { counterexample; failure; _ }) -> (
            match
              Usage.check_subsystem ~limits:race_limits ~impl:(sequential ())
                ~env:ctx.env (Lazy.force seq_model) ~field ~subsystem_class
            with
            | Some _ -> None (* fails even without preemption: the checker's business *)
            | None ->
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
                    subsystem_class how ))
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
