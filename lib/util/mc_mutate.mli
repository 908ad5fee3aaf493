(** Mutation switch for the model-checking gauntlet.

    Protocol code hosts a handful of intentionally-broken variants,
    each guarded by [enabled "<name>"].  Normal runs have no mutant
    active, so every guard is a single branch on a [None] ref.  The
    gauntlet ({!Adgc_mc.Mutants}) activates one mutant at a time and
    requires the bounded model checker to catch it.

    The switch is global, process-wide state: tests that flip it must
    restore it ([with_mutant] does so even on exceptions), and the
    whole-program test runner never runs mutated and unmutated
    explorations concurrently. *)

val set : string option -> unit
(** Activate the named mutant, or deactivate with [None]. *)

val enabled : string -> bool
(** [true] iff that mutant is the active one. *)
