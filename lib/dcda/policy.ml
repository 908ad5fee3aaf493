type deletion_mode = All_local | Broadcast

let deletion_mode_name = function All_local -> "all_local" | Broadcast -> "broadcast"

type t = {
  idle_threshold : int;
  scan_period : int;
  snapshot_period : int;
  max_per_scan : int;
  cooldown : int;
  deletion_mode : deletion_mode;
  cdm_budget : int;
  candidate_audit_period : int;
}

let default =
  {
    idle_threshold = 200;
    scan_period = 500;
    snapshot_period = 400;
    max_per_scan = 16;
    cooldown = 2_000;
    deletion_mode = All_local;
    cdm_budget = 256;
    candidate_audit_period = 2_000;
  }
