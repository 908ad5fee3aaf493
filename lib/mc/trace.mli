(** Replayable counterexample traces.

    A trace file is the checker's deliverable: scenario name, active
    mutant (if any), the violations observed, and the action trail
    that produces them.  [adgc_sim mc --replay FILE] re-executes it
    deterministically and verifies the recorded violations (or goal
    divergence) reproduce. *)

type expectation =
  | Violation  (** replaying the trail yields these safety violations *)
  | Divergence
      (** the trail reaches the scenario goal unmutated but fails to
          under the recorded mutant (a liveness kill) *)

type t = {
  scenario : string;
  mutant : string option;
  expect : expectation;
  caps : Scenario.caps option;
      (** scope override the trail was recorded under; [None] replays
          with the scenario's default caps *)
  violations : string list;  (** recorded violations ([Violation] only) *)
  trail : Action.t list;
}

val save : string -> t -> unit
(** Write as pretty-printed JSON. *)

val load : string -> (t, string) result

type verdict = Reproduced | Failed of string

val replay : t -> verdict
(** Re-run the trace and check its expectation: a [Violation] trace
    must yield exactly the recorded violations; a [Divergence] trace
    must reach the goal on the unmutated replay and miss it (or become
    inapplicable) under the mutant. *)
