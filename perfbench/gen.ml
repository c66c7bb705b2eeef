(* Seeded MicroPython corpora whose answers are known before any tool runs.

   Every file is assembled from the paper's Valve protocol and composites
   that drive it, so its verdict follows from how it was built:

   - a composite whose operations each take a valve through a full
     [test; open; close] or [test; clean] cycle verifies (exit 0), with
     any number of claims drawn from two families that hold by
     construction;
   - [Leak] drops one [close] (the [chain_with_leak] bug): invalid
     subsystem usage, exit 1;
   - [Claim_fail] adds [G !vX.clean] although some operation cleans vX:
     a failed claim, exit 1;
   - [Race] adds the [datalog.py] session logger, with a spawned [begin]
     racing the foreground [begin; end]: exit 1, and lint SY112;
   - [Contradiction] adds the pair [F vX.open] / [G !vX.open]: both fail
     on the model (exit 1), and lint SY110.

   The lint codes follow from the claim analysis: with two or more claims,
   every claim that holds on the model is entailed by its usage language
   (SY104) and the claim set shrinks (SY111); a contradictory pair, kept
   by the sweep, logically implies every other claim (SY109 instead of
   SY104). Gathered tasks act on distinct valves, so every interleaving is
   safe unless a race is planted. *)

type plant =
  | Verified
  | Leak
  | Claim_fail
  | Race
  | Contradiction

type file = {
  name : string;
  source : string;
  code : int;  (** the exit code [shelley check] must give this file alone *)
  lint_codes : string list;  (** sorted codes [shelley lint] must raise *)
}

let valve =
  {|@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.clean = Pin(28, OUT)
        self.status = Pin(29, IN)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        self.clean.on()
        return ["test"]
|}

let datalog =
  {|@sys
class Datalog:
    def __init__(self):
        self.cs = Pin(5, OUT)

    @op_initial
    def begin(self):
        self.cs.on()
        return ["begin", "end"]

    @op_final
    def end(self):
        self.cs.off()
        return ["begin"]
|}

(* The paper's two-valve sector (§2.2): it breaks the Valve protocol twice
   and its own claim once. *)
let bad_sector =
  {|@claim("(!a.open) W b.open")
@sys(["a", "b"])
class BadSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["open_b"]
            case ["clean"]:
                self.a.clean()
                print("a failed")
                return []

    @op_final
    def open_b(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                self.a.close()
                self.b.close()
                return []
            case ["clean"]:
                self.b.clean()
                print("b failed")
                self.a.close()
                return []
|}

let good_sector =
  {|@claim("(!a.open) W b.open")
@sys(["a", "b"])
class GoodSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial
    def start(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                return ["open_a", "drain"]
            case ["clean"]:
                self.b.clean()
                return ["abort"]

    @op
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["shutdown"]
            case ["clean"]:
                self.a.clean()
                return ["drain"]

    @op_final
    def shutdown(self):
        self.a.close()
        self.b.close()
        return ["start"]

    @op_final
    def drain(self):
        self.b.close()
        return ["start"]

    @op_final
    def abort(self):
        return ["start"]
|}

(* --- Composites --------------------------------------------------------------- *)

type body =
  | Cycle of int  (** a full test/open/close | test/clean cycle on one valve *)
  | Leaky of int  (** the same with the [close] dropped *)
  | Gather of (int * bool) list
      (** fork-join over distinct valves; [true] runs the whole
          [test; clean] cycle inside the task, [false] only [test], the
          [clean] following the join *)
  | Spawn of int * int  (** create_task a test/clean cycle on one valve, then [Cycle] another *)
  | Session  (** the datalog race: spawned begin vs foreground begin; end *)

type spec = {
  cls : string;
  fields : int;
  ops : body array;
  ring : bool;  (** the final operation hands back to the first *)
  claims : string list;
  race : bool;
}

let field i = Printf.sprintf "v%d" i
let op_name i = Printf.sprintf "step%d" i

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let render_body buf ~ret body =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf ("        " ^ s ^ "\n")) fmt in
  let cycle ~close v =
    line "match self.%s.test():" v;
    line "    case [\"open\"]:";
    line "        self.%s.open()" v;
    if close then line "        self.%s.close()" v;
    line "        return %s" ret;
    line "    case [\"clean\"]:";
    line "        self.%s.clean()" v;
    line "        return %s" ret
  in
  match body with
  | Cycle v -> cycle ~close:true (field v)
  | Leaky v -> cycle ~close:false (field v)
  | Gather tasks ->
    let arg (v, whole) =
      if whole then Printf.sprintf "self.%s.clean(self.%s.test())" (field v) (field v)
      else Printf.sprintf "self.%s.test()" (field v)
    in
    line "await uasyncio.gather(%s)" (String.concat ", " (List.map arg tasks));
    List.iter (fun (v, whole) -> if not whole then line "self.%s.clean()" (field v)) tasks;
    line "return %s" ret
  | Spawn (spawned, v) ->
    line "uasyncio.create_task(self.%s.clean(self.%s.test()))" (field spawned)
      (field spawned);
    cycle ~close:true (field v)
  | Session ->
    line "uasyncio.create_task(self.log.begin())";
    line "self.log.begin()";
    line "self.log.end()";
    line "return %s" ret

let is_async = function
  | Gather _ | Spawn _ | Session -> true
  | Cycle _ | Leaky _ -> false

let render_composite s =
  let buf = Buffer.create 4096 in
  List.iter (fun c -> Printf.bprintf buf "@claim(\"%s\")\n" c) s.claims;
  let declared = List.init s.fields field @ if s.race then [ "log" ] else [] in
  Printf.bprintf buf "@sys([%s])\nclass %s:\n    def __init__(self):\n"
    (String.concat ", " (List.map (Printf.sprintf "%S") declared))
    s.cls;
  List.iter (fun f -> Printf.bprintf buf "        self.%s = Valve()\n" f)
    (List.init s.fields field);
  if s.race then Buffer.add_string buf "        self.log = Datalog()\n";
  let n = Array.length s.ops in
  Array.iteri
    (fun i body ->
      let decorator =
        if n = 1 then "op_initial_final"
        else if i = 0 then "op_initial"
        else if i = n - 1 then "op_final"
        else "op"
      in
      let ret =
        if i < n - 1 then Printf.sprintf "[\"%s\"]" (op_name (i + 1))
        else if s.ring then Printf.sprintf "[\"%s\"]" (op_name 0)
        else "[]"
      in
      Printf.bprintf buf "\n    @%s\n    %sdef %s(self):\n" decorator
        (if is_async body then "async " else "")
        (op_name i);
      render_body buf ~ret body)
    s.ops;
  Buffer.contents buf

(* Claims that hold on every composite built here: a valve is never opened
   before it is tested ([`Weak]), and every opening is eventually closed
   ([`Always]). *)
let true_claim kind v =
  match kind with
  | `Weak -> Printf.sprintf "(!%s.open) W %s.test" (field v) (field v)
  | `Always -> Printf.sprintf "G (%s.open -> F %s.close)" (field v) (field v)

(* Valves the bodies take through the [clean] branch in a complete trace. *)
let cleaned ops =
  Array.to_list ops
  |> List.concat_map (function
       | Cycle v | Leaky v -> [ v ]
       | Gather tasks -> List.map fst tasks
       | Spawn (a, b) -> [ a; b ]
       | Session -> [])
  |> List.sort_uniq compare

(* [n] operations; [async] of them fork tasks. The first async operation
   gathers [fanout] tasks, the others gather two or spawn one. Whatever
   sets the amount of work (where tasks fork and of what kind, loops,
   claim kinds, where a bug is planted) is drawn from [shape]; which valve
   goes where from [rng]. *)
let bodies ~shape rng ~fields ~n ~async ~fanout =
  let others v = shuffle rng (List.filter (( <> ) v) (List.init fields Fun.id)) in
  (* At most two tasks run a whole cycle: a k-task gather of one-call tasks
     has 2^k shuffle configurations, each whole task triples its share. *)
  let gather v k =
    Gather
      (List.mapi
         (fun j w -> (w, j < 2 && Random.State.bool shape))
         (v :: List.filteri (fun j _ -> j < k - 1) (others v)))
  in
  let async_at = List.filteri (fun j _ -> j < async) (shuffle shape (List.init n Fun.id)) in
  let kinds = List.init async (fun j -> j = 0 || Random.State.bool shape) in
  Array.init n (fun i ->
      (* The first [fields] operations use each valve once, so no declared
         subsystem goes unused (SY105). *)
      let v = if i < fields then i else Random.State.int rng fields in
      match List.find_index (( = ) i) async_at with
      | None -> Cycle v
      | Some 0 -> gather v fanout
      | Some j -> if List.nth kinds j then gather v 2 else Spawn (List.hd (others v), v))

(* Valves some complete trace opens. *)
let opened ops =
  Array.to_list ops
  |> List.filter_map (function Cycle v | Leaky v | Spawn (_, v) -> Some v | Gather _ | Session -> None)
  |> List.sort_uniq compare

let composite ~shape rng ~cls ~fields ~n ~n_true ~async ~fanout plant =
  let ops = bodies ~shape rng ~fields ~n ~async ~fanout in
  let ops =
    match plant with
    | Leak ->
      let i = Random.State.int shape n in
      ops.(i) <- Leaky (match ops.(i) with Cycle v | Leaky v | Spawn (_, v) -> v | _ -> i mod fields);
      ops
    | Race ->
      let i = Random.State.int shape (n + 1) in
      Array.concat [ Array.sub ops 0 i; [| Session |]; Array.sub ops i (n - i) ]
    | Verified | Claim_fail | Contradiction -> ops
  in
  let trues =
    let weak = shuffle rng (cleaned ops) and always = shuffle rng (cleaned ops) in
    let rec take k weak always =
      if k = 0 then []
      else
        let want_weak = Random.State.bool shape in
        match (weak, always) with
        | v :: weak, _ when want_weak || always = [] -> true_claim `Weak v :: take (k - 1) weak always
        | _, v :: always -> true_claim `Always v :: take (k - 1) weak always
        | _ -> []
    in
    take n_true weak always
  in
  let planted =
    match plant with
    | Claim_fail -> [ Printf.sprintf "G !%s.clean" (field (pick rng (cleaned ops))) ]
    | Contradiction ->
      let v = field (pick rng (opened ops)) in
      [ Printf.sprintf "F %s.open" v; Printf.sprintf "G !%s.open" v ]
    | Verified | Leak | Race -> []
  in
  let claims = shuffle rng (trues @ planted) in
  let spec = { cls; fields; ops; ring = Random.State.bool shape; claims; race = plant = Race } in
  let lint_codes =
    (if plant = Contradiction then [ "SY110" ] else [])
    @ (if plant = Race then [ "SY112" ] else [])
    @
    if List.length claims >= 2 && trues <> [] then
      [ (if plant = Contradiction then "SY109" else "SY104"); "SY111" ]
    else []
  in
  let source = (if plant = Race then datalog ^ "\n\n" else "") ^ render_composite spec in
  (source, (if plant = Verified then 0 else 1), List.sort_uniq compare lint_codes)

let with_valve ?(imports = false) body =
  (if imports then "import uasyncio\n\n\n" else "") ^ valve ^ "\n\n" ^ body

(* --- Corpora ----------------------------------------------------------------- *)

let rng_of ~seed ~salt = Random.State.make [| seed; salt |]

(* A corpus is a fixed multiset of file shapes (kind, size, plant), drawn
   from a generator that does not depend on the seed, so every seed asks
   for about the same amount of work; the seed draws everything else
   (which valves, which claims, loops, task mixes) and the file order. *)

(* One project file of the check_corpus mix: paper-sized listings,
   composites over 1-3 valves with 0-4 claims, about a quarter async.
   [concurrency = false] keeps every file sequential. *)
let project_file ?(concurrency = true) ~shape rng ~name =
  let roll = Random.State.float shape 1.0 in
  if roll < 0.04 then { name; source = valve; code = 0; lint_codes = [] }
  else if roll < 0.08 then
    { name; source = with_valve good_sector; code = 0; lint_codes = [] }
  else if roll < 0.11 then
    { name; source = with_valve bad_sector; code = 1; lint_codes = [] }
  else begin
    let fields = 1 + Random.State.int shape 3 in
    let n = 1 + Random.State.int shape 6 in
    let async = concurrency && fields >= 2 && Random.State.float shape 1.0 < 0.3 in
    let plant =
      let p = Random.State.float shape 1.0 in
      if p < 0.12 then Leak
      else if p < 0.22 then Claim_fail
      else if async && p < 0.32 then Race
      else Verified
    in
    let source, code, lint_codes =
      composite ~shape rng ~cls:"Ctl" ~fields ~n
        ~n_true:(Random.State.int shape 5)
        ~async:(if async then 1 + Random.State.int shape (min 2 n) else 0)
        ~fanout:fields plant
    in
    { name; source = with_valve ~imports:async source; code; lint_codes }
  end

(* One heavy lint unit: 8-20 operations, 4-12 claims, async bodies and
   gathers fanning out to 7 tasks. *)
let heavy_file ~shape rng ~name =
  let fields = 4 + Random.State.int shape 4 in
  let n = 8 + Random.State.int shape 13 in
  let plant =
    let p = Random.State.float shape 1.0 in
    if p < 0.3 then Contradiction else if p < 0.55 then Race else Verified
  in
  let n_planted = if plant = Contradiction then 2 else 0 in
  let source, code, lint_codes =
    composite ~shape rng ~cls:"Plant" ~fields ~n
      ~n_true:(4 + Random.State.int shape 9 - n_planted)
      ~async:(1 + Random.State.int shape 3)
      ~fanout:(min fields (4 + Random.State.int shape 4)) plant
  in
  { name; source = with_valve ~imports:true source; code; lint_codes }

let corpus ~seed ~salt ~count ~dir make =
  let rng = rng_of ~seed ~salt in
  shuffle rng (List.init count Fun.id)
  |> List.mapi (fun i slot ->
         make ~shape:(rng_of ~seed:slot ~salt) rng
           ~name:(Filename.concat dir (Printf.sprintf "f%03d.py" i)))

let write_file path source =
  let oc = open_out_bin path in
  output_string oc source;
  close_out oc

let write (f : file) = write_file f.name f.source
