(* Global mutation switch for the model-checking gauntlet.

   Exactly one named mutant (or none) is active per run.  Protocol
   modules guard an intentionally-broken code path on [enabled name];
   the model checker flips the switch, re-explores the scope and must
   produce an invariant violation for every registered mutant.  The
   switch lives here, at the bottom of the dependency stack, so every
   layer (algebra, dcda, rt) can consult it without new edges. *)

let current : string option ref = ref None

let set name = current := name

let enabled name = match !current with Some m -> String.equal m name | None -> false
