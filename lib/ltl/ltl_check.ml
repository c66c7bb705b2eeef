type violation = {
  formula : Ltlf.t;
  counterexample : Trace.t;
}

let pp_violation fmt v =
  Format.fprintf fmt "@[<v>Formula: %a@,Counter example: %a@]" Ltlf.pp v.formula Trace.pp
    v.counterexample

let check session formula =
  match Entail.implies session ~hyps:[] formula with
  | Entail.Entailed -> Ok ()
  | Entail.Not_entailed counterexample -> Error { formula; counterexample }
  | Entail.Unknown { resource; limit } -> raise (Limits.Budget_exceeded { resource; limit })

let check_claim session claim = check session (Ltl_parser.parse claim)
