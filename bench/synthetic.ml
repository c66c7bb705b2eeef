(* Synthetic composites for the scaling benchmarks, over the paper's Valve
   ([Sources.valve], shared with the examples). *)

(* Synthetic composite with [n] middle operations chained in a ring, each
   exercising the valve — used for scaling benchmarks. *)
let chain_composite n =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "@sys([\"v\"])\nclass Chain:\n    def __init__(self):\n        self.v = Valve()\n\n";
  let op_name i = Printf.sprintf "step%d" i in
  for i = 0 to n - 1 do
    let decorator =
      if i = 0 then "@op_initial" else if i = n - 1 then "@op_final" else "@op"
    in
    let next = if i = n - 1 then "" else Printf.sprintf "\"%s\"" (op_name (i + 1)) in
    Buffer.add_string buf
      (Printf.sprintf
         "    %s\n    def %s(self):\n        match self.v.test():\n            case [\"open\"]:\n                self.v.open()\n                self.v.close()\n                return [%s]\n            case [\"clean\"]:\n                self.v.clean()\n                return [%s]\n\n"
         decorator (op_name i) next next)
  done;
  Buffer.contents buf

(* Like [chain_composite], but the final operation leaves the valve open —
   the verifier must walk the whole chain to exhibit the violation, which
   makes counterexample depth proportional to [n]. *)
let chain_with_leak n =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "@sys([\"v\"])\nclass LeakyChain:\n    def __init__(self):\n        self.v = Valve()\n\n";
  let op_name i = Printf.sprintf "step%d" i in
  for i = 0 to n - 1 do
    let decorator =
      if i = 0 && n = 1 then "@op_initial_final"
      else if i = 0 then "@op_initial"
      else if i = n - 1 then "@op_final"
      else "@op"
    in
    let next = if i = n - 1 then "" else Printf.sprintf "\"%s\"" (op_name (i + 1)) in
    if i = n - 1 then
      (* The bug: test, open, but never close. *)
      Buffer.add_string buf
        (Printf.sprintf
           "    %s\n    def %s(self):\n        match self.v.test():\n            case [\"open\"]:\n                self.v.open()\n                return []\n            case [\"clean\"]:\n                self.v.clean()\n                return []\n\n"
           decorator (op_name i))
    else
      Buffer.add_string buf
        (Printf.sprintf
           "    %s\n    def %s(self):\n        match self.v.test():\n            case [\"open\"]:\n                self.v.open()\n                self.v.close()\n                return [%s]\n            case [\"clean\"]:\n                self.v.clean()\n                return [%s]\n\n"
           decorator (op_name i) next next)
  done;
  Buffer.contents buf

(* A composite over [k] valves whose one operation tests them all in one
   [gather] and then cleans them all in another: two [k]-task shuffles in
   one behavior. *)
let gather_composite k =
  let fields = List.init k (Printf.sprintf "v%d") in
  let gather op =
    Printf.sprintf "        await uasyncio.gather(%s)\n"
      (String.concat ", " (List.map (fun f -> Printf.sprintf "self.%s.%s()" f op) fields))
  in
  Printf.sprintf
    "import uasyncio\n\n@sys([%s])\nclass Bank:\n    def __init__(self):\n%s\n    @op_initial_final\n    async def cycle(self):\n%s%s        return [\"cycle\"]\n"
    (String.concat ", " (List.map (Printf.sprintf "\"%s\"") fields))
    (String.concat "" (List.map (Printf.sprintf "        self.%s = Valve()\n") fields))
    (gather "test") (gather "clean")
