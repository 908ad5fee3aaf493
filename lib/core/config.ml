type detector_kind = Dcda | No_detector

type t = {
  seed : int;
  n_procs : int;
  runtime : Adgc_rt.Runtime.config;
  net : Adgc_rt.Network.config;
  faults : Adgc_rt.Faults.plan;
  policy : Adgc_dcda.Policy.t;
  detector : detector_kind;
  telemetry : bool;
}

let quick ?(seed = 42) ?(n_procs = 4) () =
  {
    seed;
    n_procs;
    runtime =
      {
        (Adgc_rt.Runtime.default_config ()) with
        Adgc_rt.Runtime.lgc_period = 300;
        new_set_period = 350;
        scion_grace = 3_000;
      };
    net = Adgc_rt.Network.default_config ();
    faults = Adgc_rt.Faults.none;
    policy = Adgc_dcda.Policy.default;
    detector = Dcda;
    telemetry = false;
  }

(* The model checker runs the system time-frozen: nothing periodic
   ever fires (the checker calls the duties explicitly), the network
   parks every envelope for explored delivery, and every time-based
   policy filter is neutralised so a state is a pure function of the
   choice sequence that produced it. *)
let mc ?(seed = 0) ?(n_procs = 2) () =
  let t = quick ~seed ~n_procs () in
  let runtime =
    (* dgc_window 0: DGC control payloads reach the wire synchronously
       inside send_dgc, never through the (frozen) scheduler. *)
    { t.runtime with Adgc_rt.Runtime.scion_grace = 0; dgc_window = 0 }
  in
  t.net.Adgc_rt.Network.delivery <- Adgc_rt.Network.Manual;
  let policy =
    {
      t.policy with
      Adgc_dcda.Policy.idle_threshold = 0;
      scan_period = 1;
      snapshot_period = 1;
      cooldown = 0;
      deletion_mode = Adgc_dcda.Policy.Broadcast;
    }
  in
  { t with runtime; policy }
