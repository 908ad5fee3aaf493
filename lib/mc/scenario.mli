(** A model-checking scenario: a small topology, a script of
    application mutations, and the scope bounds of the exploration.

    Scenarios respect the {e well-formed mutation} discipline: a
    scripted mutation may only create references the application could
    legitimately hold at that point (local links between reachable
    objects, invocations through reachable stubs, root removal).
    Cross-process references appear exclusively through the RMI /
    export machinery — never forged — so every explored interleaving
    is a behaviour the real platform could exhibit, and an invariant
    violation is always the protocol's fault. *)

type caps = {
  snapshots : int;  (** snapshots per process *)
  scans : int;  (** detector candidate scans per process *)
  lgcs : int;  (** local collections per process *)
  sends : int;  (** [NewSetStubs] rounds per process *)
  drops : int;  (** message drops, whole run *)
}

type instance = {
  mutations : (string * (unit -> unit)) array;
      (** scripted application steps, fired in order by
          {!Action.Mutate}; the name is documentation for traces *)
  goal : (unit -> bool) option;
      (** liveness target (e.g. "the cycle was reclaimed"), reachable
          in the unmutated scope; [None] for pure-safety scenarios *)
}

type t = {
  name : string;
  descr : string;
  n_procs : int;
  caps : caps;  (** default scope; explorations may override *)
  setup : Adgc.Sim.t -> instance;
      (** build the initial topology and return the mutation script
          (closing over the objects it created) *)
}
