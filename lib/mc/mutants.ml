type strategy = Safety | Divergence

type entry = {
  mutant : string;
  descr : string;
  scenario : string;
  strategy : strategy;
  caps : Scenario.caps option;
  witness : Action.t list;
}

let deliver kind src dst = Action.Deliver { kind; src; dst; nth = 0 }

let all =
  [
    {
      mutant = "lgc_ignores_scions";
      descr = "local collector forgets that scions are GC roots";
      scenario = "two_proc_cycle";
      strategy = Safety;
      caps = None;
      witness = [ Action.Lgc 1 ];
    };
    {
      mutant = "ignore_local_reach";
      descr = "detector forgets safety rule 2 (never follow or accept a locally reachable branch)";
      scenario = "two_proc_cycle";
      strategy = Safety;
      caps = None;
      (* Root intact: the detection started at P1 walks straight through
         the rooted A and proves the live cycle. *)
      witness =
        [
          Action.Snapshot 0;
          Action.Snapshot 1;
          Action.Scan 1;
          deliver "cdm" 1 0;
          deliver "cdm" 0 1;
          Action.Lgc 1;
        ];
    };
    {
      mutant = "conclude_ignores_unresolved";
      descr = "detector concludes while scion dependencies are untraversed";
      scenario = "external_holder";
      strategy = Safety;
      caps = None;
      (* The external dependency (p0 -> A) stays unresolved forever; the
         mutant concludes over it at P2 — B's own scion is among the
         proven set and is deleted on the spot. *)
      witness =
        [
          Action.Snapshot 1;
          Action.Snapshot 2;
          Action.Scan 1;
          deliver "cdm" 1 2;
          Action.Lgc 2;
        ];
    };
    {
      mutant = "drop_source_scion";
      descr = "detector loses one scion dependency when deriving a CDM";
      scenario = "external_holder";
      strategy = Safety;
      caps = None;
      (* The dropped dependency is exactly the external holder's, so the
         remaining algebra cancels and the conclusion at P2 deletes B's
         only scion. *)
      witness =
        [
          Action.Snapshot 1;
          Action.Snapshot 2;
          Action.Scan 2;
          deliver "cdm" 2 1;
          deliver "cdm" 1 2;
          Action.Lgc 2;
        ];
    };
    {
      mutant = "ack_before_delivery";
      descr = "export notice acknowledged without recording the scion";
      scenario = "export_handshake";
      strategy = Safety;
      caps = None;
      (* With no scion for P2's reference, the exporter's post-drop
         listing round leaves X wholly unprotected at its owner. *)
      witness =
        [
          Action.Mutate 0;
          deliver "export_notice" 1 0;
          deliver "rmi_request" 1 2;
          deliver "export_ack" 0 1;
          deliver "rmi_reply" 2 1;
          Action.Send_sets 1;
          deliver "new_set_stubs" 1 0;
          Action.Mutate 1;
          Action.Lgc 1;
          Action.Send_sets 1;
          deliver "new_set_stubs" 1 0;
          Action.Lgc 0;
        ];
    };
    {
      mutant = "skip_ic_guards";
      descr = "detector forgets safety rule 3 (invocation-count consistency, all three checks)";
      scenario = "ic_race";
      strategy = Safety;
      caps = None;
      (* The undelivered invocation keeps F live while its stub-side
         counter is already ahead; with every IC check gone the stale
         detection cancels and concludes over the live cycle. *)
      witness =
        [
          Action.Mutate 0;
          Action.Mutate 1;
          Action.Snapshot 0;
          Action.Snapshot 1;
          Action.Scan 0;
          deliver "cdm" 0 1;
          deliver "cdm" 1 0;
          deliver "cdm_delete" 0 1;
          Action.Lgc 1;
        ];
    };
    {
      mutant = "no_reinitiation";
      descr = "detector never retries a candidate after a fruitless attempt";
      scenario = "two_proc_cycle";
      strategy = Divergence;
      caps = Some Scenarios.lost_cdm_caps;
      (* The paper's resilience claim: losing a CDM only delays the
         collection until the next scan retries.  Without reinitiation
         the retry scan initiates nothing and the cycle leaks. *)
      witness = Scenarios.lost_cdm_trail;
    };
    {
      mutant = "stale_summaries";
      descr = "detector keeps its first snapshot forever";
      scenario = "two_proc_cycle";
      strategy = Divergence;
      caps = Some Scenarios.stale_witness_caps;
      (* The frozen pre-unlink summary says the cycle is locally
         reachable, so the detector refuses to initiate ever again. *)
      witness = Scenarios.stale_witness_trail;
    };
  ]

type outcome = {
  entry : entry;
  caught : bool;
  minimized : Action.t list;
  violations : string list;
  deterministic : bool;
}

let scenario_of e =
  match Scenarios.find e.scenario with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Mutants.run_entry: unknown scenario %S" e.scenario)

(* Safety: the subsequence still violates under the mutant. *)
let violates e scenario trail =
  match Explore.run ~mutant:e.mutant ?caps:e.caps scenario trail with
  | Ok (_, viols) -> viols <> []
  | Error _ -> false

(* Divergence: the subsequence still reaches the goal clean AND still
   fails (inapplicable action, missed goal or violation) mutated. *)
let clean_succeeds e scenario trail =
  match Explore.run ?caps:e.caps scenario trail with
  | Ok (sys, []) -> System.goal_reached sys
  | Ok (_, _ :: _) | Error _ -> false

let mutated_fails e scenario trail =
  match Explore.run ~mutant:e.mutant ?caps:e.caps scenario trail with
  | Ok (sys, viols) -> viols <> [] || not (System.goal_reached sys)
  | Error _ -> true

let run_entry e =
  let scenario = scenario_of e in
  let test =
    match e.strategy with
    | Safety -> violates e scenario
    | Divergence -> fun trail -> clean_succeeds e scenario trail && mutated_fails e scenario trail
  in
  let caught = test e.witness in
  if not caught then
    { entry = e; caught = false; minimized = []; violations = []; deterministic = false }
  else begin
    let minimized = Explore.ddmin ~test e.witness in
    let replay () =
      match Explore.run ~mutant:e.mutant ?caps:e.caps scenario minimized with
      | Ok (sys, viols) -> Some (System.fingerprint sys, viols)
      | Error _ -> None
    in
    let first = replay () and second = replay () in
    let violations = match first with Some (_, viols) -> viols | None -> [] in
    { entry = e; caught = true; minimized; violations; deterministic = first = second }
  end

let trace_of o =
  {
    Trace.scenario = o.entry.scenario;
    mutant = Some o.entry.mutant;
    expect = (match o.entry.strategy with Safety -> Trace.Violation | Divergence -> Trace.Divergence);
    caps = o.entry.caps;
    violations = o.violations;
    trail = o.minimized;
  }
