(** Bounded exploration of a scenario's choice space.

    Stateless-search design: there is no undo, so every tree node is
    reconstructed by replaying its trail against a fresh
    {!System.create}.  A node whose {!System.fingerprint} was already
    visited with at least as much remaining depth budget is pruned —
    interleavings of commuting actions collapse onto one state, which
    is what makes small scopes exhaustively explorable. *)

type outcome = {
  states : int;  (** distinct state fingerprints visited *)
  transitions : int;  (** actions applied across the search *)
  complete : bool;
      (** the whole scope was explored: no node was cut off by
          [max_depth] while it still had enabled actions *)
  violation : (Action.t list * string list) option;
      (** first violating trail found, with its violations; exploration
          stops there *)
}

val run :
  ?mutant:string ->
  ?caps:Scenario.caps ->
  Scenario.t ->
  Action.t list ->
  (System.t * string list, string) Stdlib.result
(** Replay a trail from scratch; [Ok (system, violations)] with every
    violation observed along the way (in order), or [Error reason] at
    the first inapplicable action. *)

val explore :
  ?mutant:string -> ?caps:Scenario.caps -> ?max_depth:int -> Scenario.t -> outcome
(** Depth-first search of the whole scope (default depth bound 64 —
    effectively "until the caps close the space").  Stops at the first
    violation. *)

val ddmin : test:(Action.t list -> bool) -> Action.t list -> Action.t list
(** Classic delta debugging over a trail known to satisfy [test]
    (1-minimal result: removing any single remaining action breaks
    [test]).  [test] receives candidate subsequences; reject trails
    with inapplicable actions there. *)

val swarm :
  ?mutant:string ->
  ?caps:Scenario.caps ->
  seeds:int list ->
  steps:int ->
  Scenario.t ->
  (int * Action.t list * string list) option
(** Randomized walks, one per seed, each up to [steps] actions: pick a
    uniformly random enabled action, apply, check.  Returns the first
    violating walk as [(seed, trail, violations)].  Fully
    deterministic per seed. *)
