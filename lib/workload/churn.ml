open Adgc_algebra
open Adgc_rt
module Rng = Adgc_util.Rng

type t = { cluster : Cluster.t; rng : Rng.t }

let create ~cluster ~rng () = { cluster; rng }

(* A real program can only act on what it can reach from its roots:
   picking arbitrary heap objects would "resurrect" garbage, violating
   the stability-of-garbage premise the detector (correctly) relies
   on.  So all picks draw from the root-reachable region. *)
let reachable (p : Process.t) = Heap.trace p.Process.heap ~from:(Heap.roots p.Process.heap)

let random_obj t (p : Process.t) =
  let { Heap.local; _ } = reachable p in
  match Oid.Set.elements local with
  | [] -> None
  | oids -> Heap.get p.Process.heap (Rng.pick_list t.rng oids)

let random_stub t (p : Process.t) =
  let { Heap.remote; _ } = reachable p in
  match Oid.Set.elements remote with
  | [] -> None
  | targets -> Stub_table.find p.Process.stubs (Rng.pick_list t.rng targets)

let do_alloc t p =
  let o = Heap.alloc p.Process.heap in
  match random_obj t p with
  | Some parent when not (Oid.equal parent.Heap.oid o.Heap.oid) ->
      ignore (Heap.add_ref p.Process.heap parent o.Heap.oid : int)
  | Some _ | None -> Heap.add_root p.Process.heap o.Heap.oid

(* Name-service lookup: when a process holds no remote reference at
   all, real applications reconnect to a well-known service.  Model
   that by wiring a reachable local object to a mutator-reachable
   object of another process (never to garbage). *)
let lookup t (p : Process.t) =
  let n = Cluster.n_procs t.cluster in
  let other = (Proc_id.to_int p.Process.id + 1 + Rng.int t.rng (n - 1)) mod n in
  let q = Cluster.proc t.cluster other in
  if not q.Process.alive then None
  else
  match (random_obj t p, random_obj t q) with
  | Some holder, Some target ->
      Mutator.wire_remote t.cluster ~holder ~target;
      Stub_table.find p.Process.stubs target.Heap.oid
  | (Some _ | None), _ -> None

let stub_or_lookup t (p : Process.t) =
  match random_stub t p with Some stub -> Some stub | None -> lookup t p

let do_invoke t (p : Process.t) =
  match stub_or_lookup t p with
  | None -> ()
  | Some stub ->
      Rmi.call (Cluster.rt t.cluster) ~src:p.Process.id ~target:stub.Stub_table.target ()

let do_export t (p : Process.t) =
  match (stub_or_lookup t p, random_obj t p) with
  | Some stub, Some arg ->
      Rmi.call (Cluster.rt t.cluster) ~src:p.Process.id ~target:stub.Stub_table.target
        ~args:[ arg.Heap.oid ] ~behavior:Mutator.store_args ()
  | (Some _ | None), _ -> ()

(* Keep at least one root per process: a program whose last root dies
   terminates, and with it all activity — not the steady state the
   churn models. *)
let do_drop_root t (p : Process.t) =
  match Heap.roots p.Process.heap with
  | [] | [ _ ] -> ()
  | roots -> Heap.remove_root p.Process.heap (Rng.pick_list t.rng roots)

let do_add_root t (p : Process.t) =
  match random_obj t p with
  | None -> ()
  | Some o -> Heap.add_root p.Process.heap o.Heap.oid

let do_unlink t (p : Process.t) =
  match random_obj t p with
  | None -> ()
  | Some o ->
      let refs = Array.to_list o.Heap.fields |> List.filter_map (fun f -> f) in
      (match refs with
      | [] -> ()
      | _ :: _ -> ignore (Heap.remove_ref p.Process.heap o (Rng.pick_list t.rng refs) : bool))

let step t =
  let p = Cluster.proc t.cluster (Rng.int t.rng (Cluster.n_procs t.cluster)) in
  if not p.Process.alive then ()
  else
  (* Cumulative thresholds of the odds [create] documents. *)
  let x = Rng.float t.rng 12.0 in
  if x < 3.0 then do_alloc t p
  else if x < 7.0 then do_invoke t p
  else if x < 9.0 then do_export t p
  else if x < 9.5 then do_drop_root t p
  else if x < 10.5 then do_add_root t p
  else do_unlink t p

let run t ~steps ~every =
  let sched = Cluster.sched t.cluster in
  for i = 1 to steps do
    Scheduler.schedule_after sched ~delay:(i * every) (fun () -> step t)
  done
