type caps = { snapshots : int; scans : int; lgcs : int; sends : int; drops : int }

type instance = {
  mutations : (string * (unit -> unit)) array;
  goal : (unit -> bool) option;
}

type t = {
  name : string;
  descr : string;
  n_procs : int;
  caps : caps;
  setup : Adgc.Sim.t -> instance;
}
