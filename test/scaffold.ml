(* Drivers and assertions that only the suites use, written over the
   system's public API: a synchronous GC round, blocking and
   replicating RMIs, the safety and liveness verdicts, a scoped mutant
   and name lookup in built topologies. *)

open Adgc_algebra
open Adgc_rt

(* One manual synchronous round: snapshot everywhere, LGC everywhere,
   stub sets everywhere, each phase in process order — for tests that
   do not want the periodic timers. *)
let run_gc_cycle sim =
  Adgc.Sim.snapshot_all sim;
  let rt = Adgc.Sim.rt sim in
  Array.iter (fun p -> ignore (Lgc.run rt p : Lgc.report)) rt.Runtime.procs;
  Array.iter (fun p -> Reflist.send_new_sets rt p) rt.Runtime.procs

(* Issue the call and drain the network; [Some results] if the reply
   came back. *)
let call_sync cluster ~src ~target ?args ?behavior () =
  let result = ref None in
  Mutator.call cluster ~src ~target ?args ?behavior
    ~on_reply:(fun results -> result := Some results)
    ();
  ignore (Cluster.drain cluster : int);
  !result

(* OBIWAN-style replication: fetch a copy of the remote object
   [target] into process [src].  The owner ships the object's fields
   back as RMI results, so the reply path runs the export handshake
   for each; [on_replica] gets the new local copy. *)
let replicate cluster ~src ~target ~on_replica =
  let rt = Cluster.rt cluster in
  let read_fields _rt (p : Process.t) ~target ~args:_ =
    match Heap.get p.Process.heap target with
    | Some obj -> Array.to_list obj.Heap.fields |> List.filter_map (fun slot -> slot)
    | None -> []
  in
  let on_reply refs =
    let p = Runtime.proc rt (Proc_id.of_int src) in
    let replica = Heap.alloc ~fields:(Int.max 2 (List.length refs)) p.Process.heap in
    List.iter (fun r -> ignore (Heap.add_ref p.Process.heap replica r : int)) refs;
    on_replica replica.Heap.oid
  in
  Rmi.call rt ~src:(Proc_id.of_int src) ~target ~behavior:read_fields ~on_reply ()

(* Raise with the oracle's first report if it saw a violation. *)
let oracle_safe oracle =
  match Adgc_check.Oracle.first_report oracle with None -> () | Some r -> failwith r

(* The globally-live objects the oracle saw an LGC about to sweep,
   oldest first. *)
let live_reclaimed oracle =
  List.filter_map
    (fun (e : Adgc_check.Oracle.event) ->
      match e.Adgc_check.Oracle.violation with
      | Adgc_check.Invariant.Live_reclaimed { proc; oid } -> Some (proc, oid)
      | _ -> None)
    (Adgc_check.Oracle.events oracle)

(* Raise if the oracle saw a live object swept. *)
let assert_safe oracle =
  match live_reclaimed oracle with
  | [] -> ()
  | vs ->
      let msg =
        String.concat ", "
          (List.map
             (fun (p, o) -> Format.asprintf "%a swept live %a" Proc_id.pp p Oid.pp o)
             vs)
      in
      failwith ("GC safety violated: " ^ msg)

(* Liveness from quiescence: capture the garbage set now, then advance
   by [step] ticks through [run] until every captured object on a live
   process is gone, or [max_ticks] have passed. *)
type liveness =
  | Converged of { ticks : int; reclaimed : int }
  | Stuck of { remaining : Oid.Set.t; after : int }

(* Ground truth as a set: every object on a live process that
   [Cluster.live_predicate] judges globally live. *)
let globally_live cluster =
  let is_live = Cluster.live_predicate cluster in
  let live = ref Oid.Set.empty in
  for i = 0 to Cluster.n_procs cluster - 1 do
    let p = Cluster.proc cluster i in
    if p.Process.alive then
      Heap.iter p.Process.heap (fun o ->
          if is_live o.Heap.oid then live := Oid.Set.add o.Heap.oid !live)
  done;
  !live

let check_liveness ?(step = 2_000) ?(max_ticks = 600_000) cluster ~run =
  let baseline = Cluster.garbage cluster in
  let total = Oid.Set.cardinal baseline in
  let residual () =
    let rt = Cluster.rt cluster in
    Oid.Set.filter
      (fun oid ->
        let p = Runtime.proc rt (Oid.owner oid) in
        p.Process.alive && Heap.mem p.Process.heap oid)
      baseline
  in
  let rec go spent =
    let remaining = residual () in
    if Oid.Set.is_empty remaining then Converged { ticks = spent; reclaimed = total }
    else if spent >= max_ticks then Stuck { remaining; after = spent }
    else begin
      run step;
      go (spent + step)
    end
  in
  go 0

let pp_liveness ppf = function
  | Converged { ticks; reclaimed } ->
      Format.fprintf ppf "converged: %d garbage objects reclaimed within %d ticks" reclaimed ticks
  | Stuck { remaining; after } ->
      Format.fprintf ppf "stuck: %d garbage objects still allocated after %d ticks (%a)"
        (Oid.Set.cardinal remaining) after
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") Oid.pp)
        (Oid.Set.elements remaining)

(* Run [f] with the named mutant active, then switch mutation off. *)
let with_mutant name f =
  Adgc_util.Mc_mutate.set (Some name);
  Fun.protect ~finally:(fun () -> Adgc_util.Mc_mutate.set None) f

(* The scion table's entry for [key], if it holds one. *)
let find_scion table key =
  List.find_opt
    (fun (e : Scion_table.entry) -> Ref_key.equal e.Scion_table.key key)
    (Scion_table.entries table)

(* When a detection hop happened. *)
(* A stub set as [Msg.New_set_stubs] carries it, from the map of its
   targets (all owned by the set's destination) to their ICs: the
   serials and the ICs, both ascending. *)
let stub_set targets =
  let listed = Oid.Map.bindings targets in
  ( Array.of_list (List.map (fun ((o : Oid.t), _) -> o.Oid.serial) listed),
    Array.of_list (List.map snd listed) )

let new_set_stubs ~seqno targets =
  let serials, ics = stub_set targets in
  Msg.New_set_stubs { seqno; serials; ics }

(* [Scion_table.apply_new_set] of the stub set [stub_set targets]. *)
let apply_set ?grace table ~now ~src ~seqno ~targets =
  let serials, ics = stub_set targets in
  Scion_table.apply_new_set ?grace table ~now ~src ~seqno ~serials ~ics

let hop_time = function
  | Adgc_obs.Lineage.Initiated h -> h.time
  | Sent h -> h.time
  | Received h -> h.time
  | Guard h -> h.time
  | Concluded h -> h.time

(* The oid of a named object in a built topology. *)
let oid built name = (Adgc_workload.Topology.obj built name).Heap.oid

(* A results document as the harness writes it to disk, and a string
   read back the way [Results.load] reads the file. *)
let results_to_string doc =
  let path = Filename.temp_file "adgc_results" ".json" in
  Adgc_perf.Results.save path doc;
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  s

let results_of_string s =
  let path = Filename.temp_file "adgc_results" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc s);
  let r = Adgc_perf.Results.load path in
  Sys.remove path;
  r

let find_sample doc name =
  List.find_opt
    (fun (s : Adgc_perf.Sample.t) -> s.Adgc_perf.Sample.name = name)
    (Adgc_perf.Results.samples doc)

(* The non-timing identity of a results document: every structural
   field plus the values of Deterministic samples, with Timing values
   blanked.  Two same-seed runs must agree on it however noisy the
   host clock was. *)
let fingerprint doc =
  let module Json = Adgc_util.Json in
  let module Sample = Adgc_perf.Sample in
  let doc = Adgc_perf.Results.normalize doc in
  let sample (s : Sample.t) =
    let v f = match s.klass with Sample.Deterministic -> Json.of_float f | Timing -> Json.Null in
    Json.obj_sorted
      [
        ("name", Json.Str s.name);
        ("unit", Json.Str s.unit_);
        ("reps", Json.Int s.reps);
        ("median", v s.median);
        ("min", v s.min);
        ( "direction",
          Json.Str (match s.direction with Sample.Lower_better -> "lower" | Higher_better -> "higher")
        );
        ( "class",
          Json.Str (match s.klass with Sample.Timing -> "timing" | Deterministic -> "deterministic") );
        ("slo", match s.slo with Some x -> Json.of_float x | None -> Json.Null);
        ("config_digest", Json.Str s.config_digest);
      ]
  in
  Json.to_string
    (Json.obj_sorted
       (List.map
          (fun (name, ss) -> (name, Json.Arr (List.map sample ss)))
          doc.Adgc_perf.Results.sections))
