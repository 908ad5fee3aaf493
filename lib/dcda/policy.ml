type deletion_mode = Arrival_only | All_local | Broadcast

let deletion_mode_name = function
  | Arrival_only -> "arrival_only"
  | All_local -> "all_local"
  | Broadcast -> "broadcast"

type scan_order = Sorted | Rotating

type t = {
  idle_threshold : int;
  scan_period : int;
  snapshot_period : int;
  max_per_scan : int;
  cooldown : int;
  ttl : int option;
  deletion_mode : deletion_mode;
  early_ic_check : bool;
  scan_order : scan_order;
  backoff : bool;
  cdm_budget : int;
  candidate_audit_period : int;
}

let default =
  {
    idle_threshold = 2_000;
    scan_period = 3_000;
    snapshot_period = 2_500;
    max_per_scan = 4;
    cooldown = 10_000;
    ttl = None;
    deletion_mode = All_local;
    early_ic_check = false;
    scan_order = Rotating;
    backoff = true;
    cdm_budget = 256;
    candidate_audit_period = 12_500;
  }

let aggressive =
  {
    idle_threshold = 200;
    scan_period = 500;
    snapshot_period = 400;
    max_per_scan = 16;
    cooldown = 2_000;
    ttl = None;
    deletion_mode = All_local;
    early_ic_check = false;
    scan_order = Rotating;
    backoff = true;
    cdm_budget = 256;
    candidate_audit_period = 2_000;
  }
