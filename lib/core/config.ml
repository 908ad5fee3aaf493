type detector_kind = Dcda | No_detector

(* Group size 0 means the flat clique; 1 would be a clique of
   singleton groups — operationally identical — so it normalises to 0
   and [> 1] is the single "grouping is on" test everywhere. *)
let groups_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "off" | "flat" | "none" -> Some 0
  | "on" -> Some 8
  | s -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> Some (if n <= 1 then 0 else n)
      | _ -> None)

let groups_to_string = function 0 -> "off" | n -> string_of_int n

let groups_of_env () =
  match Sys.getenv_opt "ADGC_GROUPS" with
  | Some s -> ( match groups_of_string s with Some g -> g | None -> 0)
  | None -> 0

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

let default ?(seed = 42) ?(n_procs = 4) () =
  let groups = groups_of_env () in
  {
    seed;
    n_procs;
    runtime =
      {
        (Adgc_rt.Runtime.default_config ()) with
        Adgc_rt.Runtime.group_size = groups;
        group_relay = groups > 1;
      };
    net = Adgc_rt.Network.default_config ();
    faults = Adgc_rt.Faults.none;
    policy = Adgc_dcda.Policy.default;
    detector = Dcda;
    telemetry = false;
  }

let quick ?(seed = 42) ?(n_procs = 4) () =
  let t = default ~seed ~n_procs () in
  let runtime =
    {
      t.runtime with
      Adgc_rt.Runtime.lgc_period = 300;
      new_set_period = 350;
      scion_grace = 3_000;
    }
  in
  { t with runtime; policy = Adgc_dcda.Policy.aggressive }

(* The model checker runs the system time-frozen: nothing periodic
   ever fires (the checker calls the duties explicitly), the network
   parks every envelope for explored delivery, and every time-based
   policy filter is neutralised so a state is a pure function of the
   choice sequence that produced it. *)
let mc ?(seed = 0) ?(n_procs = 2) () =
  let t = default ~seed ~n_procs () in
  let runtime =
    (* dgc_window 0: DGC control payloads reach the wire synchronously
       inside send_dgc, never through the (frozen) scheduler. *)
    {
      t.runtime with
      Adgc_rt.Runtime.scion_grace = 0;
      failure_detection = false;
      dgc_window = 0;
    }
  in
  let net = t.net in
  net.Adgc_rt.Network.delivery <- Adgc_rt.Network.Manual;
  let policy =
    {
      Adgc_dcda.Policy.default with
      Adgc_dcda.Policy.idle_threshold = 0;
      scan_period = 1;
      snapshot_period = 1;
      cooldown = 0;
      backoff = false;
      scan_order = Adgc_dcda.Policy.Sorted;
      deletion_mode = Adgc_dcda.Policy.Broadcast;
      early_ic_check = false;
    }
  in
  { t with runtime; policy }

let groups t = t.runtime.Adgc_rt.Runtime.group_size

let with_groups t size =
  let size = if size <= 1 then 0 else size in
  {
    t with
    runtime = { t.runtime with Adgc_rt.Runtime.group_size = size; group_relay = size > 1 };
  }
