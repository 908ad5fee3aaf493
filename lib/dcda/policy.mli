(** Detector policy knobs.

    The paper leaves candidate selection to "efficient heuristics from
    the literature"; this policy implements the natural one its §2.1
    sketches — a scion whose target is not locally reachable and has
    not been invoked for a while is suspected of belonging to a
    distributed garbage cycle — plus rate limiting and a per-detection
    work budget.  A scan resumes just past the last candidate it
    picked, wrapping, so under more eligible candidates than
    [max_per_scan] every scion is eventually tried; and a candidate's
    cooldown doubles after every fruitless initiation, capped at 32x,
    so candidates pinned by long-lived external references (Fig. 1)
    stop burning CDMs at every scan. *)

type deletion_mode =
  | All_local
      (** delete every proven scion owned by the concluding process —
          purely local, converges in one acyclic-DGC cascade *)
  | Broadcast
      (** additionally notify the other owners of proven scions *)

val deletion_mode_name : deletion_mode -> string

type t = {
  idle_threshold : int;
      (** minimum simulated time since the last invocation through a
          scion before it can become a candidate *)
  scan_period : int;  (** how often each process scans for candidates *)
  snapshot_period : int;  (** how often each process re-summarizes *)
  max_per_scan : int;  (** candidate initiations per scan *)
  cooldown : int;
      (** do not re-initiate from the same scion sooner; doubled per
          fruitless initiation, up to 32x *)
  deletion_mode : deletion_mode;
  cdm_budget : int;
      (** work allowance per detection: each forwarded CDM costs one
          and fan-outs split the remainder (randomly skewed so retries
          explore different derivation subtrees), bounding a single
          detection to at most this many messages even on densely
          connected garbage, where unbounded fan-out is combinatorial
          (experiment E18) *)
  candidate_audit_period : int;
      (** period of [Kernel.Maintain_candidates], a duty that does
          nothing: kept only for the benchmark's hand copy of the
          duty lanes ([bench/e2e/rep.ml]) *)
}

val default : t
(** The one shipped policy, which every driver runs through
    [Adgc.Config.quick]: idle 200, scan 500, snapshot 400, 16 per
    scan, cooldown 2000, [All_local], budget 256 — detections
    conclude within a few thousand ticks. *)
