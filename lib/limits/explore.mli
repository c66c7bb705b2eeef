(** Budgeted breadth-first exploration of a reachable configuration space.

    Every decision procedure in the pipeline comes down to walking the
    reachable part of one transition structure: subset configurations
    ({!Determinize}, {!Language}), shuffle tuples ({!Shuffle_nfa}),
    progression obligations ({!Progression}), the entailment product
    ({!Entail}) and Brzozowski derivatives ({!Deriv}, {!Equiv}), and the
    tests' reference constructions too. This module is the one loop they
    share: intern each configuration the first time it is reached, charge
    one unit of fuel for it, expand configurations in the order they were
    discovered, and hand back either the explored graph or a shortest path
    to a goal.

    Invariants, relied on by every caller:
    - Ids are dense and assigned in discovery order; the start is id [0].
      Configurations are expanded in id order, so the id range itself is
      the breadth-first queue.
    - Each configuration's successors are visited in exactly the order the
      caller's [step] emits them. With successors emitted in symbol order,
      the path recorded for every configuration — and so every witness — is
      the shortlex-least among the shortest paths reaching it.
    - The optional fuel is charged exactly once per new key, before the key
      is counted; a successor that is already known is a memo hit and
      charges nothing.
    - The kernel emits no [Obs] counters and opens no spans: callers own
      their names and read the {!counts} they passed in. *)

(** {1 Keys} *)

(** How configurations are interned. [equal] and [hash] must agree with the
    key's own notion of equality ([hash a = hash b] whenever [equal a b]):
    a set-valued key hashes its elements, never its tree shape. *)
module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

type 'k key = (module KEY with type t = 'k)

module Int_key : KEY with type t = int
(** Ints hashed for buckets picked by low bits: the high half is folded
    in and mixed, so {!pack}ed pairs that share a low half spread out. *)

module Ints : KEY with type t = int array
(** Int arrays, compared and hashed elementwise in plain loops. *)

val int : int key
(** {!Int_key}. *)

val ints : int array key
(** {!Ints}. *)

val pair : 'a key -> 'b key -> ('a * 'b) key
(** Componentwise equality; hash combines the components' hashes. *)

val pack : int -> int -> int
(** [pack a b] is one int key for a pair of ids in [\[0, 2{^31})]: [a] in
    the high bits, [b] in the low 31. No tuple is built or hashed. *)

val high : int -> int
(** [high (pack a b) = a]. *)

val low : int -> int
(** [low (pack a b) = b]. *)

(** {1 Counters} *)

type counts = {
  mutable states : int;  (** new keys admitted (one fuel unit each) *)
  mutable memo_hits : int;  (** successors that were already known *)
}
(** Live tallies of one exploration. They are updated as the search runs,
    so a caller that catches {!Limits.Budget_exceeded} still reads how far
    the search got. *)

val counts : unit -> counts
(** Fresh zeroed counters. *)

(** {1 Exploration} *)

type ('k, 'l) graph = {
  keys : 'k array;  (** configuration of each id; [keys.(0)] is the start *)
  succs : ('l * int) list array;
      (** outgoing edges of each id as (label, target id), in the order
          [step] emitted them *)
}

val graph :
  'k key ->
  ?fuel:Limits.fuel ->
  ?counts:counts ->
  start:'k ->
  step:('k -> ('l -> 'k -> unit) -> unit) ->
  unit ->
  ('k, 'l) graph
(** The whole reachable graph. [step k emit] calls [emit label k'] once per
    successor of [k], in the order edges should appear; a successor the
    caller wants pruned is simply not emitted.
    @raise Limits.Budget_exceeded when [fuel] runs out. *)

type ('k, 'l) tree = {
  nodes : 'k array;  (** configuration of each id; [nodes.(0)] is the start *)
  path : int -> 'l list;
      (** the labels along the path the search first reached an id by: the
          shortlex-least shortest path, when [step] emits in label order *)
}

val tree :
  'k key ->
  ?fuel:Limits.fuel ->
  ?counts:counts ->
  start:'k ->
  step:('k -> ('l -> 'k -> unit) -> unit) ->
  unit ->
  ('k, 'l) tree
(** The whole reachable graph as its breadth-first spanning tree: every
    configuration, and how the search reached it, but no other edge.
    @raise Limits.Budget_exceeded when [fuel] runs out. *)

(** When a goal is tested. *)
type test =
  | On_dequeue
      (** when the configuration is about to be expanded; the search may
          already have discovered (and charged for) part of the next layer *)
  | On_discovery
      (** when the key is first reached, right after its fuel is charged;
          the search stops before discovering anything further *)

val witness :
  'k key ->
  ?fuel:Limits.fuel ->
  ?counts:counts ->
  ?test:test ->
  goal:('k -> bool) ->
  start:'k ->
  step:('k -> ('l -> 'k -> unit) -> unit) ->
  unit ->
  'l list option
(** The labels along a shortest path from [start] to a configuration
    satisfying [goal] (default test: {!On_dequeue}), rebuilt from parent
    pointers; [None] if no reachable configuration satisfies it. [goal] is
    called at most once per new key. With {!On_discovery} it runs before
    the key is counted, so a [goal] that raises (for instance a size cap)
    leaves the key uncounted.
    @raise Limits.Budget_exceeded when [fuel] runs out. *)
