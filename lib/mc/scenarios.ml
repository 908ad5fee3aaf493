open Adgc_rt
module Sim = Adgc.Sim

let heap_of sim i = (Cluster.proc (Sim.cluster sim) i).Process.heap

let gone sim i (o : Heap.obj) = not (Heap.mem (heap_of sim i) o.Heap.oid)

let two_proc_cycle : Scenario.t =
  {
    Scenario.name = "two_proc_cycle";
    descr = "root->A at P0, remote cycle A<->B with B at P1; unlink the root";
    n_procs = 2;
    (* The acceptance scope: one snapshot, scan and collection per
       process plus one possible message loss.  No listing rounds —
       none of this scenario's trails or witnesses need them, and each
       extra duty multiplies the interleaving space.  Trails that need
       a wider scope (a retry scan, a pre-mutation snapshot) carry
       their own caps. *)
    caps = { Scenario.snapshots = 1; scans = 1; lgcs = 1; sends = 0; drops = 1 };
    setup =
      (fun sim ->
        let c = Sim.cluster sim in
        let r = Mutator.alloc c ~proc:0 () in
        Mutator.add_root c r;
        let a = Mutator.alloc c ~proc:0 () in
        let b = Mutator.alloc c ~proc:1 () in
        Mutator.link c ~from_:r ~to_:a;
        Mutator.wire_remote c ~holder:a ~target:b;
        Mutator.wire_remote c ~holder:b ~target:a;
        {
          Scenario.mutations =
            [| ("unlink_root", fun () -> Mutator.unlink c ~from_:r ~to_:a) |];
          goal = Some (fun () -> gone sim 0 a && gone sim 1 b);
        });
  }

let ic_race : Scenario.t =
  {
    Scenario.name = "ic_race";
    descr =
      "root->D at P0, remote cycle D<->F; invoke F through the stub, then unlink the root";
    n_procs = 2;
    caps = { Scenario.snapshots = 1; scans = 1; lgcs = 1; sends = 0; drops = 0 };
    setup =
      (fun sim ->
        let c = Sim.cluster sim in
        let r = Mutator.alloc c ~proc:0 () in
        Mutator.add_root c r;
        let d = Mutator.alloc c ~proc:0 () in
        let f = Mutator.alloc c ~proc:1 () in
        Mutator.link c ~from_:r ~to_:d;
        Mutator.wire_remote c ~holder:d ~target:f;
        Mutator.wire_remote c ~holder:f ~target:d;
        {
          Scenario.mutations =
            [|
              ("invoke_f", fun () -> Mutator.invoke c ~src:0 ~target:f.Heap.oid);
              ("unlink_root", fun () -> Mutator.unlink c ~from_:r ~to_:d);
            |];
          goal = Some (fun () -> gone sim 0 d && gone sim 1 f);
        });
  }

let external_holder : Scenario.t =
  {
    Scenario.name = "external_holder";
    descr = "cycle A<->B between P1 and P2, rooted external reference to A from P0";
    n_procs = 3;
    caps = { Scenario.snapshots = 1; scans = 1; lgcs = 1; sends = 0; drops = 0 };
    setup =
      (fun sim ->
        let c = Sim.cluster sim in
        let r = Mutator.alloc c ~proc:0 () in
        Mutator.add_root c r;
        let a = Mutator.alloc c ~proc:1 () in
        let b = Mutator.alloc c ~proc:2 () in
        Mutator.wire_remote c ~holder:a ~target:b;
        Mutator.wire_remote c ~holder:b ~target:a;
        Mutator.wire_remote c ~holder:r ~target:a;
        { Scenario.mutations = [||]; goal = None });
  }

let export_handshake : Scenario.t =
  {
    Scenario.name = "export_handshake";
    descr =
      "P1 exports X (owned by P0) to P2 as an RMI argument, then drops its own reference";
    n_procs = 3;
    (* Two listing rounds: the first primes [set_recipients] for the
       owner of X, so the post-drop round reaches it with an empty set. *)
    caps = { Scenario.snapshots = 0; scans = 0; lgcs = 1; sends = 2; drops = 0 };
    setup =
      (fun sim ->
        let c = Sim.cluster sim in
        let x = Mutator.alloc c ~proc:0 () in
        let r1 = Mutator.alloc c ~proc:1 () in
        Mutator.add_root c r1;
        let r2 = Mutator.alloc c ~proc:2 () in
        Mutator.add_root c r2;
        let y = Mutator.alloc c ~proc:2 () in
        Mutator.link c ~from_:r2 ~to_:y;
        Mutator.wire_remote c ~holder:r1 ~target:x;
        Mutator.wire_remote c ~holder:r1 ~target:y;
        {
          Scenario.mutations =
            [|
              ( "export_x_to_y",
                fun () ->
                  Mutator.call c ~src:1 ~target:y.Heap.oid ~args:[ x.Heap.oid ]
                    ~behavior:Mutator.store_args () );
              ("drop_x", fun () -> Mutator.unwire_remote c ~holder:r1 ~target:x);
            |];
          goal = None;
        });
  }

let all = [ two_proc_cycle; ic_race; external_holder; export_handshake ]

let find name = List.find_opt (fun (s : Scenario.t) -> s.Scenario.name = name) all

(* ----------------------------------------------------------------- *)
(* Scripted trails.  Hand-derived schedules; the conformance tests
   replay them and assert the exact verdicts. *)

let deliver kind src dst = Action.Deliver { kind; src; dst; nth = 0 }

let drop kind src dst = Action.Drop { kind; src; dst; nth = 0 }

let reclaim_core =
  [
    Action.Snapshot 0;
    Action.Snapshot 1;
    Action.Scan 0;
    (* detection of scion (P1, A) initiated at P0 travels the cycle:
       CDM to P1 (explaining stub A->B), back to P0 (full match),
       conclusion broadcasts the deletion of P1's scion for B *)
    deliver "cdm" 0 1;
    deliver "cdm" 1 0;
    deliver "cdm_delete" 0 1;
    Action.Lgc 0;
    Action.Lgc 1;
  ]

let lost_cdm_trail =
  [
    Action.Mutate 0;
    Action.Snapshot 0;
    Action.Snapshot 1;
    Action.Scan 0;
    drop "cdm" 0 1;
    (* the detection died with its first CDM; a later scan retries *)
    Action.Scan 0;
    deliver "cdm" 0 1;
    deliver "cdm" 1 0;
    deliver "cdm_delete" 0 1;
    Action.Lgc 0;
    Action.Lgc 1;
  ]

(* The retry needs a second scan at P0 — one more than the default
   exhaustive scope allows. *)
let lost_cdm_caps = { Scenario.snapshots = 1; scans = 2; lgcs = 1; sends = 0; drops = 1 }

let stale_witness_trail = Action.Snapshot 0 :: Action.Mutate 0 :: reclaim_core

(* The pre-mutation snapshot of P0 is a second one. *)
let stale_witness_caps = { Scenario.snapshots = 2; scans = 1; lgcs = 1; sends = 0; drops = 0 }
