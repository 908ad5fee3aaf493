(* Tests for the runtime substrate: heap, scheduler, network, and the
   stub/scion tables. *)

open Adgc_algebra
open Adgc_rt
module Rng = Adgc_util.Rng
module Stats = Adgc_util.Stats

let check = Alcotest.check

let p0 = Proc_id.of_int 0

let p1 = Proc_id.of_int 1

let oid p serial = Oid.make ~owner:(Proc_id.of_int p) ~serial

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_alloc () =
  let h = Heap.create ~owner:p0 in
  let a = Heap.alloc h and b = Heap.alloc h in
  check Alcotest.bool "distinct oids" false (Oid.equal a.Heap.oid b.Heap.oid);
  check Alcotest.int "size" 2 (Heap.size h);
  check Alcotest.bool "mem" true (Heap.mem h a.Heap.oid);
  check Alcotest.bool "owner" true (Proc_id.equal (Oid.owner a.Heap.oid) p0)

(* Which mutation classes move [Heap.reclaim_mutations], the
   staleness signature [Sim.run_until_clean] keys on.  Reclamation can
   only happen after a class that might shrink the garbage set —
   object removal, reference/root insertion, a stored field — never
   after pure garbage creation (alloc, root/reference removal, field
   clear). *)
let test_heap_reclaim_mutation_classes () =
  let heap = Heap.create ~owner:p0 in
  let count () = Heap.reclaim_mutations heap in
  let expect_bump label f =
    let before = count () in
    f ();
    check Alcotest.bool (label ^ " counts as a reclaim mutation") true (count () > before)
  in
  let expect_still label f =
    let before = count () in
    f ();
    check Alcotest.int (label ^ " is reclaim-neutral") before (count ())
  in
  let a = Heap.alloc heap and b = Heap.alloc heap in
  expect_still "alloc" (fun () -> ignore (Heap.alloc heap : Heap.obj));
  expect_bump "add_root" (fun () -> Heap.add_root heap a.Heap.oid);
  expect_bump "add_ref" (fun () -> ignore (Heap.add_ref heap a b.Heap.oid : int));
  expect_still "remove_ref" (fun () -> ignore (Heap.remove_ref heap a b.Heap.oid : bool));
  expect_still "remove_root" (fun () -> Heap.remove_root heap a.Heap.oid);
  expect_bump "remove" (fun () -> Heap.remove heap b.Heap.oid)

(* [add_ref] stores into the first free slot and returns its index, so
   a slot cleared by [remove_ref] is the next one filled. *)
let test_heap_fields () =
  let h = Heap.create ~owner:p0 in
  let a = Heap.alloc ~fields:2 h in
  let b = Heap.alloc h and c = Heap.alloc h and d = Heap.alloc h in
  check Alcotest.int "two empty slots" 2 (Array.length a.Heap.fields);
  check Alcotest.bool "all empty" true (Array.for_all Option.is_none a.Heap.fields);
  check Alcotest.int "first free slot" 0 (Heap.add_ref h a b.Heap.oid);
  check Alcotest.int "next free slot" 1 (Heap.add_ref h a c.Heap.oid);
  check Alcotest.bool "cleared" true (Heap.remove_ref h a b.Heap.oid);
  check Alcotest.bool "slot 0 empty" true (a.Heap.fields.(0) = None);
  check Alcotest.int "the cleared slot is reused" 0 (Heap.add_ref h a d.Heap.oid);
  check Alcotest.int "no growth while a slot was free" 2 (Array.length a.Heap.fields);
  check (Alcotest.option Alcotest.bool) "slot 1 untouched" (Some true)
    (Option.map (fun o -> Oid.equal o c.Heap.oid) a.Heap.fields.(1))

(* [get] hands back the stored object; [remove] takes it out of every
   view of the heap. *)
let test_heap_get_after_remove () =
  let h = Heap.create ~owner:p0 in
  let a = Heap.alloc h and b = Heap.alloc h in
  (match Heap.get h a.Heap.oid with
  | Some o -> check Alcotest.bool "the same object" true (o == a)
  | None -> Alcotest.fail "allocated object not found");
  Heap.remove h a.Heap.oid;
  check Alcotest.bool "get after remove" true (Heap.get h a.Heap.oid = None);
  check Alcotest.bool "not a member" false (Heap.mem h a.Heap.oid);
  check Alcotest.int "size" 1 (Heap.size h);
  check (Alcotest.list Alcotest.bool) "fold sees the survivor only" [ true ]
    (Heap.fold h ~init:[] ~f:(fun acc o -> Oid.equal o.Heap.oid b.Heap.oid :: acc));
  Heap.remove h a.Heap.oid;
  check Alcotest.int "removing twice is a no-op" 1 (Heap.size h)

let test_heap_add_ref_grows () =
  let h = Heap.create ~owner:p0 in
  let a = Heap.alloc ~fields:1 h in
  let targets = List.init 5 (fun _ -> (Heap.alloc h).Heap.oid) in
  List.iter (fun t -> ignore (Heap.add_ref h a t : int)) targets;
  let held = Array.to_list a.Heap.fields |> List.filter_map (fun f -> f) in
  check Alcotest.int "all stored" 5 (List.length held)

let test_heap_remove_ref () =
  let h = Heap.create ~owner:p0 in
  let a = Heap.alloc h and b = Heap.alloc h in
  ignore (Heap.add_ref h a b.Heap.oid : int);
  check Alcotest.bool "removed" true (Heap.remove_ref h a b.Heap.oid);
  check Alcotest.bool "gone" false (Heap.remove_ref h a b.Heap.oid)

let test_heap_roots () =
  let h = Heap.create ~owner:p0 in
  let a = Heap.alloc h in
  Heap.add_root h a.Heap.oid;
  check Alcotest.bool "is root" true (Heap.is_root h a.Heap.oid);
  check Alcotest.int "roots" 1 (List.length (Heap.roots h));
  Heap.remove_root h a.Heap.oid;
  check Alcotest.bool "removed" false (Heap.is_root h a.Heap.oid);
  Alcotest.check_raises "foreign root"
    (Invalid_argument
       (Format.asprintf "Heap.add_root: %a is not local to %a" Oid.pp (oid 1 0) Proc_id.pp p0))
    (fun () -> Heap.add_root h (oid 1 0))

let test_heap_trace_chain () =
  let h = Heap.create ~owner:p0 in
  let a = Heap.alloc h and b = Heap.alloc h and c = Heap.alloc h in
  let orphan = Heap.alloc h in
  ignore (Heap.add_ref h a b.Heap.oid : int);
  ignore (Heap.add_ref h b c.Heap.oid : int);
  let { Heap.local; remote } = Heap.trace h ~from:[ a.Heap.oid ] in
  check Alcotest.int "three reached" 3 (Oid.Set.cardinal local);
  check Alcotest.bool "orphan not reached" false (Oid.Set.mem orphan.Heap.oid local);
  check Alcotest.int "no remote" 0 (Oid.Set.cardinal remote)

let test_heap_trace_cycle_terminates () =
  let h = Heap.create ~owner:p0 in
  let a = Heap.alloc h and b = Heap.alloc h in
  ignore (Heap.add_ref h a b.Heap.oid : int);
  ignore (Heap.add_ref h b a.Heap.oid : int);
  let { Heap.local; _ } = Heap.trace h ~from:[ a.Heap.oid ] in
  check Alcotest.int "both" 2 (Oid.Set.cardinal local)

let test_heap_trace_remote_frontier () =
  let h = Heap.create ~owner:p0 in
  let a = Heap.alloc h in
  ignore (Heap.add_ref h a (oid 1 7) : int);
  ignore (Heap.add_ref h a (oid 2 3) : int);
  let { Heap.local; remote } = Heap.trace h ~from:[ a.Heap.oid ] in
  check Alcotest.int "one local" 1 (Oid.Set.cardinal local);
  check Alcotest.int "two remote" 2 (Oid.Set.cardinal remote)

let test_heap_trace_dangling_local () =
  let h = Heap.create ~owner:p0 in
  let a = Heap.alloc h and b = Heap.alloc h in
  ignore (Heap.add_ref h a b.Heap.oid : int);
  Heap.remove h b.Heap.oid;
  let { Heap.local; remote } = Heap.trace h ~from:[ a.Heap.oid ] in
  check Alcotest.int "dangling ignored" 1 (Oid.Set.cardinal local);
  check Alcotest.int "not remote either" 0 (Oid.Set.cardinal remote)

let test_heap_trace_from_absent () =
  let h = Heap.create ~owner:p0 in
  let { Heap.local; _ } = Heap.trace h ~from:[ oid 0 99 ] in
  check Alcotest.int "nothing" 0 (Oid.Set.cardinal local)

(* Steady churn must not grow the heap's own metadata (interned ids,
   slots, packed adjacency, marks): a heap holds no more words after
   50 rounds than after 5.  Each round allocates, links and sweeps
   1,000 objects, each holding a reference to a remote object never
   seen before, then has one long-lived object take and drop
   references to 1,000 further new remote objects — edits alone,
   which change no object population.  A per-write log that sweeps
   never trim fails this by an order of magnitude; an append-only
   remote interner, eightfold. *)
let test_heap_metadata_bounded () =
  let h = Heap.create ~owner:p0 in
  let keeper = Heap.alloc h in
  let remote = ref 0 in
  let fresh_remote () =
    incr remote;
    oid 1 !remote
  in
  let round () =
    let objs = Array.init 1_000 (fun _ -> Heap.alloc h) in
    for i = 0 to Array.length objs - 2 do
      ignore (Heap.add_ref h objs.(i) objs.(i + 1).Heap.oid : int)
    done;
    Array.iter (fun (o : Heap.obj) -> ignore (Heap.add_ref h o (fresh_remote ()) : int)) objs;
    Array.iter (fun (o : Heap.obj) -> Heap.remove h o.Heap.oid) objs;
    ignore (Heap.dense_sync h : int);
    for _ = 1 to 1_000 do
      let target = fresh_remote () in
      ignore (Heap.add_ref h keeper target : int);
      check Alcotest.bool "the reference is dropped" true (Heap.remove_ref h keeper target);
      ignore (Heap.dense_sync h : int)
    done
  in
  let words_after rounds =
    for _ = 1 to rounds do
      round ()
    done;
    Obj.reachable_words (Obj.repr h)
  in
  let at5 = words_after 5 in
  let at50 = words_after 45 in
  check Alcotest.bool
    (Printf.sprintf "round 50 holds %d words, round 5 held %d" at50 at5)
    true
    (at50 <= at5 + 2_048)

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_sched_ordering () =
  let s = Scheduler.create () in
  let log = ref [] in
  Scheduler.schedule_at s ~time:30 (fun () -> log := 30 :: !log);
  Scheduler.schedule_at s ~time:10 (fun () -> log := 10 :: !log);
  Scheduler.schedule_at s ~time:20 (fun () -> log := 20 :: !log);
  ignore (Scheduler.drain s : int);
  check (Alcotest.list Alcotest.int) "time order" [ 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "clock at last event" 30 (Scheduler.now s)

let test_sched_same_time_fifo () =
  let s = Scheduler.create () in
  let log = ref [] in
  List.iter
    (fun tag -> Scheduler.schedule_at s ~time:5 (fun () -> log := tag :: !log))
    [ "a"; "b"; "c" ];
  ignore (Scheduler.drain s : int);
  check (Alcotest.list Alcotest.string) "fifo" [ "a"; "b"; "c" ] (List.rev !log)

let test_sched_run_until () =
  let s = Scheduler.create () in
  let fired = ref 0 in
  Scheduler.schedule_at s ~time:10 (fun () -> incr fired);
  Scheduler.schedule_at s ~time:20 (fun () -> incr fired);
  Scheduler.run_until s ~time:15;
  check Alcotest.int "only first" 1 !fired;
  check Alcotest.int "clock advanced to 15" 15 (Scheduler.now s);
  Scheduler.run_until s ~time:100;
  check Alcotest.int "second fired" 2 !fired;
  check Alcotest.int "clock 100 even when idle" 100 (Scheduler.now s)

let test_sched_nested_scheduling () =
  let s = Scheduler.create () in
  let log = ref [] in
  Scheduler.schedule_at s ~time:1 (fun () ->
      log := "outer" :: !log;
      Scheduler.schedule_after s ~delay:1 (fun () -> log := "inner" :: !log));
  ignore (Scheduler.drain s : int);
  check (Alcotest.list Alcotest.string) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_sched_past_rejected () =
  let s = Scheduler.create () in
  Scheduler.schedule_at s ~time:10 (fun () -> ());
  ignore (Scheduler.drain s : int);
  Alcotest.check_raises "past" (Invalid_argument "Scheduler.schedule_at: time is in the past")
    (fun () -> Scheduler.schedule_at s ~time:5 (fun () -> ()))

let test_sched_recurring () =
  let s = Scheduler.create () in
  let fired = ref 0 in
  let handle = Scheduler.every s ~period:10 (fun () -> incr fired) in
  Scheduler.run_until s ~time:35;
  check Alcotest.int "three firings" 3 !fired;
  Scheduler.cancel handle;
  Scheduler.run_until s ~time:100;
  check Alcotest.int "cancelled" 3 !fired

let test_sched_recurring_phase () =
  let s = Scheduler.create () in
  let times = ref [] in
  let handle = Scheduler.every s ~phase:3 ~period:10 (fun () -> times := Scheduler.now s :: !times) in
  Scheduler.run_until s ~time:25;
  Scheduler.cancel handle;
  check (Alcotest.list Alcotest.int) "phase then period" [ 3; 13; 23 ] (List.rev !times)

let test_sched_drain_limit () =
  let s = Scheduler.create () in
  (* A self-perpetuating event: drain must stop at the limit. *)
  let rec again () = Scheduler.schedule_after s ~delay:1 again in
  again ();
  let n = Scheduler.drain ~limit:50 s in
  check Alcotest.int "stopped at limit" 50 n

(* ------------------------------------------------------------------ *)
(* Network *)

let mk_net ?(drop = 0.0) ?(lat_min = 5) ?(lat_max = 25) () =
  let sched = Scheduler.create () in
  let stats = Stats.create () in
  let config = Network.default_config () in
  config.Network.drop_prob <- drop;
  config.Network.latency_min <- lat_min;
  config.Network.latency_max <- lat_max;
  let net = Network.create ~sched ~rng:(Rng.create 1) ~stats ~config () in
  (sched, stats, net)

let probe_msg () = Msg.make ~seq:0 ~src:p0 ~dst:p1 ~sent_at:0 Msg.Scion_probe

let test_net_delivers () =
  let sched, _, net = mk_net () in
  let got = ref 0 in
  Network.set_deliver net (fun _ -> incr got);
  Network.send net (probe_msg ());
  check Alcotest.int "in flight" 1 (Network.in_flight_count net);
  ignore (Scheduler.drain sched : int);
  check Alcotest.int "delivered" 1 !got;
  check Alcotest.int "no longer in flight" 0 (Network.in_flight_count net)

(* Telemetry is the cluster's own setting: the network config a
   caller hands in is read, never written, so later clusters built
   from the same record start from what the caller wrote. *)
let test_cluster_leaves_net_config () =
  let net_config = Network.default_config () in
  let before = { net_config with Network.latency_min = net_config.Network.latency_min } in
  let cluster = Cluster.create ~telemetry:true ~net_config ~n:2 () in
  Cluster.teardown cluster;
  check Alcotest.bool "net config unchanged" true (net_config = before)

let test_net_latency_bounds () =
  let sched, _, net = mk_net ~lat_min:7 ~lat_max:9 () in
  let times = ref [] in
  Network.set_deliver net (fun _ -> times := Scheduler.now sched :: !times);
  for _ = 1 to 50 do
    Network.send net (probe_msg ())
  done;
  ignore (Scheduler.drain sched : int);
  List.iter
    (fun t -> if t < 7 || t > 9 then Alcotest.failf "latency out of bounds: %d" t)
    !times

let test_net_drop_all () =
  let sched, stats, net = mk_net ~drop:1.0 () in
  Network.set_deliver net (fun _ -> Alcotest.fail "should not deliver");
  for _ = 1 to 10 do
    Network.send net (probe_msg ())
  done;
  ignore (Scheduler.drain sched : int);
  check Alcotest.int "all dropped" 10 (Stats.get stats "net.msg.dropped")

let test_net_drop_rate () =
  let sched, stats, net = mk_net ~drop:0.3 () in
  Network.set_deliver net (fun _ -> ());
  let n = 5_000 in
  for _ = 1 to n do
    Network.send net (probe_msg ())
  done;
  ignore (Scheduler.drain sched : int);
  let dropped = Stats.get stats "net.msg.dropped" in
  let rate = float_of_int dropped /. float_of_int n in
  check Alcotest.bool "rate near 0.3" true (rate > 0.25 && rate < 0.35)

let test_net_block_link () =
  let sched, stats, net = mk_net () in
  let got = ref 0 in
  Network.set_deliver net (fun _ -> incr got);
  Network.block_link net p0 p1;
  Network.send net (probe_msg ());
  (* Reverse direction unaffected. *)
  Network.send net (Msg.make ~seq:0 ~src:p1 ~dst:p0 ~sent_at:0 Msg.Scion_probe);
  ignore (Scheduler.drain sched : int);
  check Alcotest.int "one through" 1 !got;
  check Alcotest.int "one dropped" 1 (Stats.get stats "net.msg.dropped");
  Network.unblock_link net p0 p1;
  Network.send net (probe_msg ());
  ignore (Scheduler.drain sched : int);
  check Alcotest.int "unblocked" 2 !got

let test_net_byte_accounting () =
  let sched, stats, net = mk_net () in
  Network.config net |> fun c ->
  c.Network.account_bytes <- true;
  Network.set_deliver net (fun _ -> ());
  Network.send net (probe_msg ());
  ignore (Scheduler.drain sched : int);
  check Alcotest.bool "bytes recorded" true (Stats.get stats "net.bytes" > 0);
  check Alcotest.bool "per kind" true (Stats.get stats "net.bytes.scion_probe" > 0)

let test_net_counters_by_kind () =
  let sched, stats, net = mk_net () in
  Network.set_deliver net (fun _ -> ());
  Network.send net (probe_msg ());
  ignore (Scheduler.drain sched : int);
  check Alcotest.int "sent.kind" 1 (Stats.get stats "net.msg.sent.scion_probe");
  check Alcotest.int "delivered" 1 (Stats.get stats "net.msg.delivered")

(* ------------------------------------------------------------------ *)
(* Stub table *)

let test_stub_ensure_and_flags () =
  let t = Stub_table.create ~owner:p0 in
  let target = oid 1 0 in
  let e = Stub_table.ensure t ~now:5 target in
  check Alcotest.bool "fresh" true e.Stub_table.fresh;
  check Alcotest.bool "live" true e.Stub_table.live;
  check Alcotest.int "created_at" 5 e.Stub_table.created_at;
  let e2 = Stub_table.ensure t ~now:9 target in
  check Alcotest.int "same entry" 5 e2.Stub_table.created_at;
  Alcotest.check_raises "local target"
    (Invalid_argument
       (Format.asprintf "Stub_table.ensure: %a is local to %a" Oid.pp (oid 0 0) Proc_id.pp p0))
    (fun () -> ignore (Stub_table.ensure t ~now:0 (oid 0 0)))

let test_stub_ic () =
  let t = Stub_table.create ~owner:p0 in
  let target = oid 1 0 in
  ignore (Stub_table.ensure t ~now:0 target);
  check Alcotest.int "bump" 1 (Stub_table.bump_ic t target);
  check Alcotest.int "bump again" 2 (Stub_table.bump_ic t target);
  check (Alcotest.option Alcotest.int) "read" (Some 2) (Stub_table.ic t target)

let test_stub_sweep_lifecycle () =
  let t = Stub_table.create ~owner:p0 in
  let target = oid 1 0 in
  ignore (Stub_table.ensure t ~now:0 target);
  (* Fresh entries survive a sweep even when dead... *)
  Stub_table.mark_all_dead t;
  check Alcotest.int "fresh survives" 0 (List.length (Stub_table.sweep t));
  (* ...and are advertised once. *)
  check Alcotest.int "advertised" 1 (Array.length (fst (Stub_table.advertised_to t p1)));
  Stub_table.clear_fresh t;
  (* Now dead and not fresh: swept. *)
  Stub_table.mark_all_dead t;
  check Alcotest.int "swept" 1 (List.length (Stub_table.sweep t));
  check Alcotest.bool "gone" false (Stub_table.mem t target)

let test_stub_live_survives () =
  let t = Stub_table.create ~owner:p0 in
  let target = oid 1 0 in
  ignore (Stub_table.ensure t ~now:0 target);
  Stub_table.clear_fresh t;
  Stub_table.mark_all_dead t;
  Stub_table.mark_live t target;
  check Alcotest.int "live survives" 0 (List.length (Stub_table.sweep t))

let test_stub_pins_survive () =
  let t = Stub_table.create ~owner:p0 in
  let target = oid 1 0 in
  Stub_table.pin t ~now:0 target;
  Stub_table.clear_fresh t;
  Stub_table.mark_all_dead t;
  check Alcotest.int "pinned survives" 0 (List.length (Stub_table.sweep t));
  Stub_table.unpin t target;
  Stub_table.mark_all_dead t;
  check Alcotest.int "unpinned swept" 1 (List.length (Stub_table.sweep t))

let test_stub_pin_counts () =
  let t = Stub_table.create ~owner:p0 in
  let target = oid 1 0 in
  Stub_table.pin t ~now:0 target;
  Stub_table.pin t ~now:0 target;
  Stub_table.unpin t target;
  Stub_table.clear_fresh t;
  Stub_table.mark_all_dead t;
  check Alcotest.int "still one pin" 0 (List.length (Stub_table.sweep t))

(* ------------------------------------------------------------------ *)
(* Scion table *)

let key src target = Ref_key.make ~src:(Proc_id.of_int src) ~target

let test_scion_ensure_checks () =
  let t = Scion_table.create ~owner:p0 in
  ignore (Scion_table.ensure t ~now:0 (key 1 (oid 0 0)));
  Alcotest.check_raises "not owner"
    (Invalid_argument
       (Format.asprintf "Scion_table.ensure: %a not owned by %a" Ref_key.pp (key 1 (oid 2 0))
          Proc_id.pp p0))
    (fun () -> ignore (Scion_table.ensure t ~now:0 (key 1 (oid 2 0))));
  Alcotest.check_raises "self ref"
    (Invalid_argument
       (Format.asprintf "Scion_table.ensure: self-reference %a" Ref_key.pp (key 0 (oid 0 0))))
    (fun () -> ignore (Scion_table.ensure t ~now:0 (key 0 (oid 0 0))))

let test_scion_ic_and_last_invoked () =
  let t = Scion_table.create ~owner:p0 in
  let k = key 1 (oid 0 0) in
  ignore (Scion_table.ensure t ~now:0 k);
  Scion_table.observe_invocation t ~now:42 k ~stub_ic:1;
  (match Scaffold.find_scion t k with
  | Some e ->
      check Alcotest.int "adopted counter" 1 e.Scion_table.ic;
      check Alcotest.int "last_invoked" 42 e.Scion_table.last_invoked
  | None -> Alcotest.fail "entry vanished");
  (* Heard values only move forward. *)
  Scion_table.observe_invocation t ~now:50 k ~stub_ic:1;
  check (Alcotest.option Alcotest.int) "idempotent" (Some 1) (Scion_table.ic t k);
  Scion_table.observe_invocation t ~now:60 k ~stub_ic:5;
  check (Alcotest.option Alcotest.int) "jumps to heard value" (Some 5) (Scion_table.ic t k)

let set_of l = List.fold_left (fun m o -> Oid.Map.add o 0 m) Oid.Map.empty l

let test_scion_new_set_confirm_then_delete () =
  let t = Scion_table.create ~owner:p0 in
  let k = key 1 (oid 0 0) in
  ignore (Scion_table.ensure t ~now:0 k);
  (* A set that excludes the target cannot kill an unconfirmed scion. *)
  let r1 = Scaffold.apply_set t ~now:1 ~src:p1 ~seqno:0 ~targets:Oid.Map.empty in
  check Alcotest.int "unconfirmed protected" 0 (List.length r1.Scion_table.deleted);
  check Alcotest.bool "still there" true (Scion_table.mem t k);
  (* A set that includes it confirms. *)
  let r2 = Scaffold.apply_set t ~now:2 ~src:p1 ~seqno:1 ~targets:(set_of [ oid 0 0 ]) in
  check Alcotest.int "nothing deleted" 0 (List.length r2.Scion_table.deleted);
  (* Now exclusion deletes. *)
  let r3 = Scaffold.apply_set t ~now:3 ~src:p1 ~seqno:2 ~targets:Oid.Map.empty in
  check Alcotest.int "deleted" 1 (List.length r3.Scion_table.deleted);
  check Alcotest.bool "gone" false (Scion_table.mem t k)

let test_scion_stale_seqno_ignored () =
  let t = Scion_table.create ~owner:p0 in
  let k = key 1 (oid 0 0) in
  ignore (Scion_table.ensure t ~now:0 k);
  ignore (Scaffold.apply_set t ~now:1 ~src:p1 ~seqno:5 ~targets:(set_of [ oid 0 0 ]));
  (* An old (reordered) empty set must not delete. *)
  let r = Scaffold.apply_set t ~now:2 ~src:p1 ~seqno:3 ~targets:Oid.Map.empty in
  check Alcotest.bool "stale" true r.Scion_table.stale;
  check Alcotest.bool "survives reorder" true (Scion_table.mem t k)

let test_scion_unknown_reported () =
  let t = Scion_table.create ~owner:p0 in
  let r = Scaffold.apply_set t ~now:0 ~src:p1 ~seqno:0 ~targets:(set_of [ oid 0 7 ]) in
  check Alcotest.int "unknown" 1 (List.length r.Scion_table.unknown)

let test_scion_other_src_untouched () =
  let t = Scion_table.create ~owner:p0 in
  let k1 = key 1 (oid 0 0) and k2 = key 2 (oid 0 0) in
  ignore (Scion_table.ensure t ~now:0 k1);
  ignore (Scion_table.ensure t ~now:0 k2);
  ignore (Scaffold.apply_set t ~now:1 ~src:p1 ~seqno:0 ~targets:(set_of [ oid 0 0 ]));
  (* Deleting via P1's sets never touches P2's scion. *)
  ignore (Scaffold.apply_set t ~now:2 ~src:p1 ~seqno:1 ~targets:Oid.Map.empty);
  check Alcotest.bool "P1 scion gone" false (Scion_table.mem t k1);
  check Alcotest.bool "P2 scion intact" true (Scion_table.mem t k2)

let test_scion_tombstone_blocks_heal () =
  let t = Scion_table.create ~owner:p0 in
  let k = key 1 (oid 0 0) in
  ignore (Scion_table.ensure t ~now:0 k);
  ignore (Scion_table.delete ~tombstone:true t k);
  check Alcotest.bool "tombstoned" true (Scion_table.tombstoned t k);
  (* Holder still advertises the target: not reported unknown (no
     heal), tombstone stays. *)
  let r = Scaffold.apply_set t ~now:1 ~src:p1 ~seqno:0 ~targets:(set_of [ oid 0 0 ]) in
  check Alcotest.int "no unknown" 0 (List.length r.Scion_table.unknown);
  check Alcotest.bool "still tombstoned" true (Scion_table.tombstoned t k);
  (* Holder stops advertising: tombstone dissolves. *)
  ignore (Scaffold.apply_set t ~now:2 ~src:p1 ~seqno:1 ~targets:Oid.Map.empty);
  check Alcotest.bool "dissolved" false (Scion_table.tombstoned t k);
  (* A later re-export may legitimately recreate the scion. *)
  let r =
    Scaffold.apply_set t ~now:3 ~src:p1 ~seqno:2 ~targets:(set_of [ oid 0 0 ])
  in
  check Alcotest.int "heal allowed again" 1 (List.length r.Scion_table.unknown)

let test_scion_grace_expires_lost_export () =
  let t = Scion_table.create ~owner:p0 in
  let k = key 1 (oid 0 0) in
  ignore (Scion_table.ensure t ~now:0 k);
  (* Within the grace period an excluding set keeps the scion. *)
  let r = Scaffold.apply_set ~grace:100 t ~now:50 ~src:p1 ~seqno:0 ~targets:Oid.Map.empty in
  check Alcotest.int "protected within grace" 0 (List.length r.Scion_table.deleted);
  (* Past the grace period it is reclaimed. *)
  let r =
    Scaffold.apply_set ~grace:100 t ~now:200 ~src:p1 ~seqno:1 ~targets:Oid.Map.empty
  in
  check Alcotest.int "expired" 1 (List.length r.Scion_table.deleted);
  check Alcotest.bool "gone" false (Scion_table.mem t k)

let test_scion_idle_sources () =
  let t = Scion_table.create ~owner:p0 in
  ignore (Scion_table.ensure t ~now:0 (key 1 (oid 0 0)));
  ignore (Scion_table.ensure t ~now:90 (key 2 (oid 0 1)));
  (* P1 last heard at creation (0); P2 at 90. *)
  let idle = Scion_table.idle_sources t ~now:100 ~threshold:50 in
  check Alcotest.int "only P1 idle" 1 (List.length idle);
  check Alcotest.bool "it is P1" true (Proc_id.equal (List.hd idle) p1);
  (* A set arrival resets the clock. *)
  ignore (Scaffold.apply_set t ~now:100 ~src:p1 ~seqno:0 ~targets:(set_of [ oid 0 0 ]));
  check Alcotest.int "none idle" 0
    (List.length (Scion_table.idle_sources t ~now:120 ~threshold:50))

let test_scion_protected_targets () =
  let t = Scion_table.create ~owner:p0 in
  ignore (Scion_table.ensure t ~now:0 (key 1 (oid 0 0)));
  ignore (Scion_table.ensure t ~now:0 (key 2 (oid 0 0)));
  ignore (Scion_table.ensure t ~now:0 (key 1 (oid 0 1)));
  check Alcotest.int "distinct targets" 2 (List.length (Scion_table.protected_targets t))

(* ------------------------------------------------------------------ *)
(* Scion table against its owner-wide reference *)

module Ref_table = Scion_table_reference

(* One owner (P0), holders P0..P4 (P0 itself is refused by both),
   targets #0..#5@P0.  Each op advances the clock by [dt]. *)
type scion_op =
  | Ensure of int * int
  | Delete of bool * int * int
  | Apply of int option * int * int * (int * int) list
      (* grace, holder, seqno offset from the last accepted, listed (serial, ic) *)
  | Observe of int * int * int
  | Idle of int
  | Touch
  | Delete_from of int

let pp_scion_op = function
  | Ensure (h, t) -> Printf.sprintf "ensure P%d->#%d" h t
  | Delete (tomb, h, t) -> Printf.sprintf "delete%s P%d->#%d" (if tomb then "~tomb" else "") h t
  | Apply (grace, h, d, l) ->
      Printf.sprintf "apply%s P%d seqno+%d [%s]"
        (match grace with Some g -> Printf.sprintf "~grace:%d" g | None -> "")
        h d
        (String.concat ";" (List.map (fun (t, ic) -> Printf.sprintf "#%d:%d" t ic) l))
  | Observe (h, t, ic) -> Printf.sprintf "observe P%d->#%d ic=%d" h t ic
  | Idle th -> Printf.sprintf "idle %d" th
  | Touch -> "touch"
  | Delete_from h -> Printf.sprintf "delete_from P%d" h

let gen_scion_ops =
  let open QCheck2.Gen in
  let holder = int_range 0 4 and target = int_range 0 5 in
  let op =
    frequency
      [
        (4, map2 (fun h t -> Ensure (h, t)) holder target);
        (2, map3 (fun tomb h t -> Delete (tomb, h, t)) bool holder target);
        ( 5,
          map4
            (fun grace h d l -> Apply (grace, h, d, l))
            (opt (int_range 0 20)) holder (int_range (-2) 3)
            (list_size (int_bound 4) (pair target (int_range 0 5))) );
        (2, map3 (fun h t ic -> Observe (h, t, ic)) holder target (int_range 0 5));
        (1, map (fun th -> Idle th) (int_range 0 30));
        (1, pure Touch);
        (1, map (fun h -> Delete_from h) holder);
      ]
  in
  list_size (int_range 1 40) (pair (int_range 0 10) op)

let print_scion_ops ops =
  String.concat "\n" (List.map (fun (dt, op) -> Printf.sprintf "+%d %s" dt (pp_scion_op op)) ops)

let outcome f = match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

let same_scion_tables ops =
  let real = Scion_table.create ~owner:p0 and model = Ref_table.create ~owner:p0 in
  let view (e : Scion_table.entry) =
    (e.Scion_table.key, e.Scion_table.ic, e.Scion_table.confirmed, e.Scion_table.created_at,
     e.Scion_table.last_invoked)
  in
  let model_view (e : Ref_table.entry) =
    (e.Ref_table.key, e.Ref_table.ic, e.Ref_table.confirmed, e.Ref_table.created_at,
     e.Ref_table.last_invoked)
  in
  let k h t = key h (oid 0 t) in
  let universe = List.concat_map (fun h -> List.init 6 (fun t -> k h t)) [ 0; 1; 2; 3; 4 ] in
  let fail fmt = Printf.ksprintf (fun msg -> QCheck2.Test.fail_report msg) fmt in
  let now = ref 0 in
  List.iteri
    (fun step (dt, op) ->
      now := !now + dt;
      let now = !now in
      let agree what a b = if a <> b then fail "step %d (%s): %s differ" step (pp_scion_op op) what in
      (match op with
      | Ensure (h, t) ->
          agree "ensure"
            (outcome (fun () -> view (Scion_table.ensure real ~now (k h t))))
            (outcome (fun () -> model_view (Ref_table.ensure model ~now (k h t))))
      | Delete (tombstone, h, t) ->
          agree "delete"
            (Scion_table.delete ~tombstone real (k h t))
            (Ref_table.delete ~tombstone model (k h t))
      | Apply (grace, h, d, listed) ->
          let src = Proc_id.of_int h in
          let seqno = Ref_table.last_seqno model src + d in
          let targets =
            List.fold_left (fun m (t, ic) -> Oid.Map.add (oid 0 t) ic m) Oid.Map.empty listed
          in
          let serials, ics = Scaffold.stub_set targets in
          let r = Scion_table.apply_new_set ?grace real ~now ~src ~seqno ~serials ~ics in
          let m = Ref_table.apply_new_set ?grace model ~now ~src ~seqno ~targets in
          agree "stale" r.Scion_table.stale m.Ref_table.stale;
          agree "unknown" r.Scion_table.unknown m.Ref_table.unknown;
          (* The reference returns [deleted] in hash order; the table
             promises ascending key order. *)
          agree "deleted" r.Scion_table.deleted (List.sort Ref_key.compare m.Ref_table.deleted)
      | Observe (h, t, stub_ic) ->
          agree "observe"
            (outcome (fun () -> Scion_table.observe_invocation real ~now (k h t) ~stub_ic))
            (outcome (fun () -> Ref_table.observe_invocation model ~now (k h t) ~stub_ic))
      | Idle threshold ->
          agree "idle_sources"
            (Scion_table.idle_sources real ~now ~threshold)
            (Ref_table.idle_sources model ~now ~threshold)
      | Touch ->
          Scion_table.touch_all_sources real ~now;
          Ref_table.touch_all_sources model ~now
      | Delete_from h ->
          agree "delete_from"
            (Scion_table.delete_from real (Proc_id.of_int h))
            (Ref_table.delete_from model (Proc_id.of_int h)));
      agree "entries"
        (List.map view (Scion_table.entries real))
        (List.map model_view (Ref_table.entries model));
      agree "size" (Scion_table.size real) (Ref_table.size model);
      agree "protected_targets" (Scion_table.protected_targets real)
        (Ref_table.protected_targets model);
      List.iter
        (fun key ->
          agree "tombstoned" (Scion_table.tombstoned real key) (Ref_table.tombstoned model key);
          agree "ic" (Scion_table.ic real key) (Ref_table.ic model key))
        universe;
      List.iter
        (fun h ->
          let src = Proc_id.of_int h in
          agree "last_seqno" (Scion_table.last_seqno real src) (Ref_table.last_seqno model src))
        [ 0; 1; 2; 3; 4 ])
    ops;
  true

let prop_scion_table_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"scion: per-holder table = owner-wide reference" ~count:500
       ~print:print_scion_ops gen_scion_ops same_scion_tables)

(* The stub-set merge walk against the reference's map-based pass, on
   wider tables than the operation sequences above reach: up to 30
   serials per holder, scions in every state, tombstones with and
   without a scion beside them, and a few sets in a row (stale ones
   too).  Each set must give the same result and leave the same
   scions, counters, confirmations, tombstones and seqnos. *)
type merge_case = {
  scions : (int * int * bool * int * int) list; (* holder, serial, confirmed, ic, created_at *)
  tombs : (int * int * bool) list; (* holder, serial, scion re-created beside it *)
  sets : (int * int * int option * (int * int) list) list;
      (* holder, seqno offset, grace, listed (serial, ic) *)
}

let gen_merge_case =
  let open QCheck2.Gen in
  let holder = int_range 1 3 and serial = int_bound 30 in
  let scion = tup5 holder serial bool (int_bound 5) (int_bound 20) in
  let tomb = triple holder serial bool in
  let set = tup4 holder (int_range (-1) 2) (opt (int_bound 30)) (list_size (int_bound 12) (pair serial (int_bound 6))) in
  map3
    (fun scions tombs sets -> { scions; tombs; sets })
    (list_size (int_bound 40) scion) (list_size (int_bound 6) tomb) (list_size (int_range 1 4) set)

let print_merge_case c =
  let entry (h, s, conf, ic, at) = Printf.sprintf "P%d->#%d%s ic=%d at=%d" h s (if conf then "!" else "") ic at in
  let tomb (h, s, again) = Printf.sprintf "tomb P%d->#%d%s" h s (if again then " (re-created)" else "") in
  let set (h, d, g, l) =
    Printf.sprintf "set P%d seqno+%d%s [%s]" h d
      (match g with Some g -> Printf.sprintf " grace=%d" g | None -> "")
      (String.concat ";" (List.map (fun (s, ic) -> Printf.sprintf "#%d:%d" s ic) l))
  in
  String.concat "\n" (List.map entry c.scions @ List.map tomb c.tombs @ List.map set c.sets)

let merge_walk_matches_reference c =
  let real = Scion_table.create ~owner:p0 and model = Ref_table.create ~owner:p0 in
  let k h s = key h (oid 0 s) in
  List.iter
    (fun (h, s, confirmed, ic, created_at) ->
      let e = Scion_table.ensure real ~now:created_at (k h s) in
      let m = Ref_table.ensure model ~now:created_at (k h s) in
      Scion_table.observe_invocation real ~now:created_at (k h s) ~stub_ic:ic;
      Ref_table.observe_invocation model ~now:created_at (k h s) ~stub_ic:ic;
      if confirmed then begin
        Scion_table.confirm e;
        Ref_table.confirm m
      end)
    c.scions;
  List.iter
    (fun (h, s, again) ->
      ignore (Scion_table.delete ~tombstone:true real (k h s) : bool);
      ignore (Ref_table.delete ~tombstone:true model (k h s) : bool);
      if again then begin
        ignore (Scion_table.ensure real ~now:0 (k h s) : Scion_table.entry);
        ignore (Ref_table.ensure model ~now:0 (k h s) : Ref_table.entry)
      end)
    c.tombs;
  let view (e : Scion_table.entry) =
    (e.Scion_table.key, e.Scion_table.ic, e.Scion_table.confirmed, e.Scion_table.created_at,
     e.Scion_table.last_invoked)
  and model_view (e : Ref_table.entry) =
    (e.Ref_table.key, e.Ref_table.ic, e.Ref_table.confirmed, e.Ref_table.created_at,
     e.Ref_table.last_invoked)
  in
  List.for_all
    (fun (h, d, grace, listed) ->
      let src = Proc_id.of_int h in
      let seqno = Ref_table.last_seqno model src + d in
      let targets = List.fold_left (fun m (s, ic) -> Oid.Map.add (oid 0 s) ic m) Oid.Map.empty listed in
      let serials, ics = Scaffold.stub_set targets in
      let r = Scion_table.apply_new_set ?grace real ~now:25 ~src ~seqno ~serials ~ics in
      let m = Ref_table.apply_new_set ?grace model ~now:25 ~src ~seqno ~targets in
      r.Scion_table.stale = m.Ref_table.stale
      && r.Scion_table.unknown = m.Ref_table.unknown
      && r.Scion_table.deleted = List.sort Ref_key.compare m.Ref_table.deleted
      && List.map view (Scion_table.entries real) = List.map model_view (Ref_table.entries model)
      && List.for_all
           (fun h ->
             Scion_table.last_seqno real (Proc_id.of_int h) = Ref_table.last_seqno model (Proc_id.of_int h)
             && List.for_all
                  (fun s -> Scion_table.tombstoned real (k h s) = Ref_table.tombstoned model (k h s))
                  (List.init 31 Fun.id))
           [ 1; 2; 3 ])
    c.sets

let prop_merge_walk_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"scion: merge-walk stub set = map-based reference" ~count:500
       ~print:print_merge_case gen_merge_case merge_walk_matches_reference)

let test_scion_deleted_ascending () =
  (* Several holders, scions created in descending order: a stub set
     that drops them all reports them in ascending key order, and
     crash reclamation likewise. *)
  let t = Scion_table.create ~owner:p0 in
  List.iter
    (fun h ->
      for s = 9 downto 0 do
        let e = Scion_table.ensure t ~now:0 (key h (oid 0 s)) in
        Scion_table.confirm e
      done)
    [ 3; 1; 2 ];
  let r =
    Scion_table.apply_new_set t ~now:1 ~src:(Proc_id.of_int 2) ~seqno:0 ~serials:[||] ~ics:[||]
  in
  let expected = List.init 10 (fun s -> key 2 (oid 0 s)) in
  check Alcotest.bool "stub set: ascending" true (r.Scion_table.deleted = expected);
  check Alcotest.bool "delete_from: ascending" true
    (Scion_table.delete_from t (Proc_id.of_int 3) = List.init 10 (fun s -> key 3 (oid 0 s)));
  check Alcotest.bool "entries: ascending" true
    (List.map (fun e -> e.Scion_table.key) (Scion_table.entries t)
    = List.init 10 (fun s -> key 1 (oid 0 s)))

let suite =
  ( "rt-core",
    [
      Alcotest.test_case "heap: alloc" `Quick test_heap_alloc;
      Alcotest.test_case "heap: reclaim-mutation classes pinned" `Quick
        test_heap_reclaim_mutation_classes;
      Alcotest.test_case "heap: fields" `Quick test_heap_fields;
      Alcotest.test_case "heap: get after remove" `Quick test_heap_get_after_remove;
      Alcotest.test_case "heap: add_ref grows" `Quick test_heap_add_ref_grows;
      Alcotest.test_case "heap: remove_ref" `Quick test_heap_remove_ref;
      Alcotest.test_case "heap: roots" `Quick test_heap_roots;
      Alcotest.test_case "heap: trace chain" `Quick test_heap_trace_chain;
      Alcotest.test_case "heap: trace cycle terminates" `Quick test_heap_trace_cycle_terminates;
      Alcotest.test_case "heap: remote frontier" `Quick test_heap_trace_remote_frontier;
      Alcotest.test_case "heap: dangling ignored" `Quick test_heap_trace_dangling_local;
      Alcotest.test_case "heap: trace from absent" `Quick test_heap_trace_from_absent;
      Alcotest.test_case "heap: metadata bounded under churn" `Quick test_heap_metadata_bounded;
      Alcotest.test_case "sched: ordering" `Quick test_sched_ordering;
      Alcotest.test_case "sched: same-time FIFO" `Quick test_sched_same_time_fifo;
      Alcotest.test_case "sched: run_until" `Quick test_sched_run_until;
      Alcotest.test_case "sched: nested scheduling" `Quick test_sched_nested_scheduling;
      Alcotest.test_case "sched: past rejected" `Quick test_sched_past_rejected;
      Alcotest.test_case "sched: recurring" `Quick test_sched_recurring;
      Alcotest.test_case "sched: recurring phase" `Quick test_sched_recurring_phase;
      Alcotest.test_case "sched: drain limit" `Quick test_sched_drain_limit;
      Alcotest.test_case "net: delivers" `Quick test_net_delivers;
      Alcotest.test_case "net: latency bounds" `Quick test_net_latency_bounds;
      Alcotest.test_case "cluster: telemetry leaves the net config alone" `Quick
        test_cluster_leaves_net_config;
      Alcotest.test_case "net: drop all" `Quick test_net_drop_all;
      Alcotest.test_case "net: drop rate" `Quick test_net_drop_rate;
      Alcotest.test_case "net: block link" `Quick test_net_block_link;
      Alcotest.test_case "net: byte accounting" `Quick test_net_byte_accounting;
      Alcotest.test_case "net: counters by kind" `Quick test_net_counters_by_kind;
      Alcotest.test_case "stub: ensure and flags" `Quick test_stub_ensure_and_flags;
      Alcotest.test_case "stub: invocation counter" `Quick test_stub_ic;
      Alcotest.test_case "stub: sweep lifecycle" `Quick test_stub_sweep_lifecycle;
      Alcotest.test_case "stub: live survives" `Quick test_stub_live_survives;
      Alcotest.test_case "stub: pins survive" `Quick test_stub_pins_survive;
      Alcotest.test_case "stub: pin counting" `Quick test_stub_pin_counts;
      Alcotest.test_case "scion: ensure checks" `Quick test_scion_ensure_checks;
      Alcotest.test_case "scion: ic and last_invoked" `Quick test_scion_ic_and_last_invoked;
      Alcotest.test_case "scion: confirm then delete" `Quick test_scion_new_set_confirm_then_delete;
      Alcotest.test_case "scion: stale seqno ignored" `Quick test_scion_stale_seqno_ignored;
      Alcotest.test_case "scion: unknown reported" `Quick test_scion_unknown_reported;
      Alcotest.test_case "scion: per-source isolation" `Quick test_scion_other_src_untouched;
      Alcotest.test_case "scion: tombstone blocks heal" `Quick test_scion_tombstone_blocks_heal;
      Alcotest.test_case "scion: grace expires lost export" `Quick
        test_scion_grace_expires_lost_export;
      Alcotest.test_case "scion: idle sources" `Quick test_scion_idle_sources;
      Alcotest.test_case "scion: protected targets" `Quick test_scion_protected_targets;
      Alcotest.test_case "scion: deleted in ascending key order" `Quick test_scion_deleted_ascending;
      prop_scion_table_matches_reference;
      prop_merge_walk_matches_reference;
    ] )
