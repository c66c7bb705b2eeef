(* Reference versions of two lint analyses, kept as they were before they
   learned to settle questions without a search: every claim question and
   every race question here runs the full query. The lint rules must agree
   with them on every analysis that runs within budget. *)

open Lint_semantic

(* The claim sweep of SY104/SY109–SY111: for each claim in reverse
   declaration order, subsumption by the kept others over every trace,
   then entailment by the usage language and the kept others, each
   justification minimized greedily. Contradictions are pairwise. *)
let analyze_claims ?fuel ~sessions:{ calls; universal } (model : Model.t) =
  let claims = Array.of_list model.Model.claims in
  let n = Array.length claims in
  let text i = fst claims.(i) in
  let formula i = snd claims.(i) in
  let no_calls = Symbol.Set.is_empty (Nfa.alphabet (Entail.impl (calls ()))) in
  let undecided = ref 0 in
  let implies_over base hyps goal =
    match Entail.implies (base ()) ?fuel ~hyps goal with
    | Entail.Entailed -> Some true
    | Entail.Not_entailed _ -> Some false
    | Entail.Unknown _ ->
      incr undecided;
      None
  in
  let witness_over formulas =
    match Entail.joint_witness (calls ()) ?fuel formulas with
    | Ok w -> Some w
    | Error _ ->
      incr undecided;
      None
  in
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
    for i = n - 1 downto 0 do
      let others = List.filter (fun j -> j <> i) !kept in
      let hyps = List.map formula others in
      let undecided_before = !undecided in
      let subsuming =
        if others = [] then None
        else if implies_over universal hyps (formula i) = Some true then
          match minimize universal others (formula i) with
          | [] -> None
          | subset -> Some (Subsumed (List.map text subset))
        else None
      in
      let verdict =
        match subsuming with
        | Some v -> Some v
        | None ->
          if n >= 2 && implies_over calls hyps (formula i) = Some true then
            Some (Redundant (List.map text (minimize calls others (formula i))))
          else None
      in
      match verdict with
      | Some v ->
        verdicts.(i) <- v;
        kept := others
      | None -> if !undecided > undecided_before then verdicts.(i) <- Undecided
    done
  end;
  let contradictions = ref [] in
  if (not no_calls) && n >= 2 then begin
    let sat = Array.init n (fun i -> witness_over [ formula i ]) in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match (sat.(i), sat.(j)) with
        | Some (Some wi), Some (Some wj) -> begin
          match witness_over [ formula i; formula j ] with
          | Some None ->
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

let rec has_par = function
  | Prog.Par _ -> true
  | Prog.Seq (a, b) | Prog.If (a, b) -> has_par a || has_par b
  | Prog.Loop p -> has_par p
  | Prog.Call _ | Prog.Skip | Prog.Return -> false

(* SY112 by search alone: every field runs the projected inclusion on the
   model and on its sequentialized model, and a race runs the whole usage
   check again (projection, then the unprojected witness search) over its
   own expansion under the race budget. Findings as the rule renders them. *)
let race (ctx : ctx) =
  let model = ctx.model in
  if
    model.Model.kind <> `Composite
    || not
         (List.exists
            (fun (op : Model.operation) -> has_par op.Model.marked_body)
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
    let interleaved = lazy (Usage.expanded_nfa ~limits:race_limits model) in
    List.filter_map
      (fun field ->
        match Model.subsystem_class model field with
        | None -> None
        | Some subsystem_class ->
          if
            Usage.holds ~limits:race_limits ~env:ctx.env model ~field ~subsystem_class
            || not
                 (Usage.holds ~limits:race_limits ~env:ctx.env (Lazy.force seq_model) ~field
                    ~subsystem_class)
          then None
          else (
            match
              Usage.check_subsystem ~limits:race_limits ~impl:interleaved ~env:ctx.env model
                ~field ~subsystem_class
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
